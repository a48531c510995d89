// Command layerbench measures Jash end to end and layer by layer: each
// workload runs as one closed-loop shell session under the JIT
// (core.Shell in ModeJash) and under the plain interpreter (interp.New,
// no observer), on identical inputs generated from a seed, with every
// output checked against an independent reference. With --trace 1 a
// separate traced run reports where the JIT's time went, per layer.
//
// Usage, from the repository root:
//
//	bash layerbench/run.sh --workload wordfreq --seed 1 --seconds 12 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setup_s is the median of at least minSetupSamples samples, taken until
// setupBudget has passed. One sample repeats the set-up until it has lasted
// setupSample and reports the mean, so set-ups of a few microseconds are
// timed over many repetitions.
const (
	minSetupSamples = 3
	setupSample     = 50 * time.Millisecond
	setupBudget     = time.Second
)

// traceDir is where a traced run writes its spans, inside the checkout.
const traceDir = ".bench_build/layerbench/traces"

// minPairs is the fewest JIT/interpreter session pairs a run measures.
const minPairs = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Int("seconds", 12, "how long the measured phase runs")
	traced := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "layerbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds time.Duration, traced bool) error {
	// Set up several times: the median is setup_s, and every set-up from
	// the same seed must build a byte-identical filesystem.
	var w *workloadSpec
	var digest string
	var samples []float64
	reps := 0
	begin := time.Now()
	for len(samples) < minSetupSamples || time.Since(begin) < setupBudget {
		runtime.GC()
		var total time.Duration
		n := 0
		for total < setupSample {
			wi, d, elapsed, err := setup(name, seed)
			if err != nil {
				return err
			}
			if reps > 0 && d != digest {
				return fmt.Errorf("set-up %d from seed %d built filesystem %s, set-up 1 built %s", reps+1, seed, d, digest)
			}
			w, digest = wi, d
			total += elapsed
			n++
			reps++
		}
		samples = append(samples, total.Seconds()/float64(n))
	}
	fmt.Printf("workload %s seed %d: %d input files, %d commands per session, vfs sha256 %s (identical over %d set-ups in %d samples)\n",
		name, seed, len(w.inputs), len(w.cmds), digest, reps, len(samples))
	fmt.Printf("set-up samples (s): %s\n", formatList(samples))

	res := result{Metrics: map[string]metric{}}
	var failures, problems []string
	if traced {
		tag := fmt.Sprintf("%s-seed%d", name, seed)
		tr, err := tracedRun(w, seconds, traceDir, tag)
		if err != nil {
			return err
		}
		res.Attempted, res.Failed, res.Metrics = tr.attempted, tr.failed, tr.metrics
		failures, problems = tr.failures, tr.problems
		fmt.Printf("spans written to %s\n", tr.tracePath)
	} else {
		e, err := endToEnd(w, seconds)
		if err != nil {
			return err
		}
		e.metrics["setup_s"] = metric{median(samples), "s"}
		res.Attempted, res.Failed, res.Metrics, failures = e.attempted, e.failed, e.metrics, e.failures
		fmt.Printf("measured speedup interp_s/jit_s = %.3f over %d session pairs\n",
			e.metrics["interp_s"].Value/e.metrics["jit_s"].Value, e.pairs)
	}
	for _, f := range failures {
		fmt.Println("FAILED:", f)
	}
	for _, p := range problems {
		fmt.Println("CONSISTENCY:", p)
	}
	res.Correct = res.Failed == 0 && len(problems) == 0
	fmt.Printf("error_rate %.6f (%d failed of %d attempted)\n", ratio(res.Failed, res.Attempted), res.Failed, res.Attempted)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %14.6f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

type e2eResult struct {
	metrics   map[string]metric
	attempted int
	failed    int
	failures  []string
	pairs     int
}

// endToEnd alternates JIT and interpreter sessions, swapping which runs
// first, until the measured time is up, after one unmeasured warm-up pair.
func endToEnd(w *workloadSpec, seconds time.Duration) (*e2eResult, error) {
	res := &e2eResult{metrics: map[string]metric{}}
	var jit, plain, p50, p99, alloc, peak []float64
	commands := 0
	record := func(r sessionResult) {
		res.attempted += r.attempted
		res.failed += r.failed
		res.failures = append(res.failures, r.failures...)
	}
	pair := func(jitFirst, measured bool) error {
		for k := 0; k < 2; k++ {
			if (k == 0) == jitFirst {
				r, _, err := jitSession(w, nil)
				if err != nil {
					return err
				}
				record(r)
				if measured {
					jit = append(jit, r.wall.Seconds())
					alloc = append(alloc, r.allocMB)
					peak = append(peak, r.peakMB)
					us := make([]float64, len(r.cmdWalls))
					for i, d := range r.cmdWalls {
						us[i] = float64(d.Nanoseconds()) / 1e3
					}
					p50 = append(p50, percentile(us, 0.50))
					p99 = append(p99, percentile(us, 0.99))
					commands = len(us)
				}
			} else {
				r, err := interpSession(w)
				if err != nil {
					return err
				}
				record(r)
				if measured {
					plain = append(plain, r.wall.Seconds())
				}
			}
		}
		return nil
	}
	if err := pair(true, false); err != nil {
		return nil, err
	}
	// A pair starts only if at least half of an average pair fits before
	// the deadline, so a run with long sessions ends near --seconds too.
	start := time.Now()
	deadline := start.Add(seconds)
	for res.pairs < minPairs || time.Until(deadline) > time.Since(start)/time.Duration(2*res.pairs) {
		if err := pair(res.pairs%2 == 0, true); err != nil {
			return nil, err
		}
		res.pairs++
	}
	m := res.metrics
	m["jit_s"] = metric{median(jit), "s"}
	m["interp_s"] = metric{median(plain), "s"}
	m["cmd_us_p50"] = metric{median(p50), "us"}
	m["cmd_us_p99"] = metric{median(p99), "us"}
	m["alloc_mb"] = metric{median(alloc), "MB"}
	m["peak_heap_mb"] = metric{median(peak), "MB"}
	fmt.Printf("jit session walls (s): %s\ninterpreter session walls (s): %s\n", formatList(jit), formatList(plain))
	fmt.Printf("jit session p50 (us): %s\njit session p99 (us): %s\n", formatList(p50), formatList(p99))
	fmt.Printf("command latency percentiles: per JIT session over %d commands (%d above p99), median over %d sessions\n",
		commands, commands-int(math.Ceil(0.99*float64(commands))), len(p99))
	return res, nil
}

func formatList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, " ")
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile is the nearest-rank percentile.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}
