package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"jash/internal/core"
	"jash/internal/cost"
	"jash/internal/interp"
	"jash/internal/vfs"
)

// profile is the cost model's laptop profile sized to this host, so the
// planner's width choices match the cores the executor really has.
func profile() *cost.Profile {
	p := cost.Laptop()
	p.Cores = runtime.GOMAXPROCS(0)
	return p
}

// loadFS builds a fresh filesystem holding exactly the workload's inputs.
func loadFS(w *workloadSpec) (*vfs.FS, error) {
	fs := vfs.New()
	for _, p := range w.sortedPaths() {
		if err := fs.WriteFile(p, w.inputs[p]); err != nil {
			return nil, fmt.Errorf("load %s: %w", p, err)
		}
	}
	return fs, nil
}

// digestFS hashes every path and file body in the tree, in name order.
func digestFS(fs *vfs.FS) (string, error) {
	h := sha256.New()
	var walk func(dir string) error
	walk = func(dir string) error {
		infos, err := fs.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, fi := range infos {
			p := dir + fi.Name
			if fi.IsDir {
				fmt.Fprintf(h, "d %s\n", p)
				if err := walk(p + "/"); err != nil {
					return err
				}
				continue
			}
			data, err := fs.ReadFile(p)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "f %s %d\n", p, len(data))
			h.Write(data)
		}
		return nil
	}
	if err := walk("/"); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// setup is one timed set-up: generate the inputs from the seed, load them
// into a filesystem and construct the JIT shell over it.
func setup(name string, seed uint64) (*workloadSpec, string, time.Duration, error) {
	start := time.Now()
	w, err := buildWorkload(name, seed)
	if err != nil {
		return nil, "", 0, err
	}
	fs, err := loadFS(w)
	if err != nil {
		return nil, "", 0, err
	}
	// Sessions build their own shells on fresh filesystems; this one is
	// constructed only so its cost counts as set-up.
	_ = core.New(fs, profile(), core.ModeJash)
	elapsed := time.Since(start)
	digest, err := digestFS(fs)
	return w, digest, elapsed, err
}

// runner executes one top-level command and returns its exit status.
type runner func(src string) (int, error)

// sessionResult is what one closed-loop session measured and checked.
type sessionResult struct {
	wall      time.Duration
	cmdWalls  []time.Duration
	attempted int
	failed    int
	failures  []string
	allocMB   float64
	peakMB    float64
	stats     *core.Stats // JIT sessions only
}

// session runs the workload's commands one after another, each sent only
// after the previous returned. Only the commands are timed; their stdout,
// status and written files are checked against the reference afterwards.
// No command of a workload rewrites a file an earlier command wrote, so
// checking files at the end sees what each command left.
func session(w *workloadSpec, fs *vfs.FS, out *bytes.Buffer, run runner) sessionResult {
	r := sessionResult{cmdWalls: make([]time.Duration, len(w.cmds))}
	stdouts := make([][]byte, len(w.cmds))
	statuses := make([]int, len(w.cmds))
	errs := make([]error, len(w.cmds))
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	peak := startHeapSampler()
	start := time.Now()
	for i, c := range w.cmds {
		out.Reset()
		t := time.Now()
		statuses[i], errs[i] = run(c.src)
		r.cmdWalls[i] = time.Since(t)
		stdouts[i] = append([]byte(nil), out.Bytes()...)
	}
	r.wall = time.Since(start)
	r.peakMB = float64(peak.stop()) / 1e6
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	r.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	for i, c := range w.cmds {
		r.attempted++
		if msg := checkCommand(c, fs, stdouts[i], statuses[i], errs[i]); msg != "" {
			r.failed++
			r.failures = append(r.failures, msg)
		}
	}
	return r
}

// checkCommand returns why a command's results differ from the
// reference, or "" when they match.
func checkCommand(c command, fs *vfs.FS, stdout []byte, status int, err error) string {
	switch {
	case err != nil:
		return fmt.Sprintf("%q: error: %v", c.src, err)
	case status != 0:
		return fmt.Sprintf("%q: status %d", c.src, status)
	case string(stdout) != c.stdout:
		return fmt.Sprintf("%q: stdout %q, want %q", c.src, clip(stdout), clip([]byte(c.stdout)))
	}
	for p, want := range c.files {
		got, rerr := fs.ReadFile(p)
		if rerr != nil {
			return fmt.Sprintf("%q: %v", c.src, rerr)
		}
		if !bytes.Equal(got, want) {
			return fmt.Sprintf("%q: %s holds %q, want %q", c.src, p, clip(got), clip(want))
		}
	}
	return ""
}

func clip(b []byte) string {
	if len(b) > 80 {
		return string(b[:80]) + "..."
	}
	return string(b)
}

// jitSession runs the workload under core.Shell in ModeJash on a fresh
// filesystem. instrument, when non-nil, may wrap the shell and returns
// the runner the session sends its commands to.
func jitSession(w *workloadSpec, instrument func(*core.Shell) runner) (sessionResult, *vfs.FS, error) {
	fs, err := loadFS(w)
	if err != nil {
		return sessionResult{}, nil, err
	}
	sh := core.New(fs, profile(), core.ModeJash)
	var out, errOut bytes.Buffer
	sh.Interp.Stdout, sh.Interp.Stderr = &out, &errOut
	run := runner(sh.Run)
	if instrument != nil {
		run = instrument(sh)
	}
	runtime.GC()
	r := session(w, fs, &out, run)
	r.stats = &sh.Stats
	return r, fs, nil
}

// interpSession runs the workload under plain interp.New, with no
// observer: the paper's sequential baseline.
func interpSession(w *workloadSpec) (sessionResult, error) {
	fs, err := loadFS(w)
	if err != nil {
		return sessionResult{}, err
	}
	in := interp.New(fs)
	var out, errOut bytes.Buffer
	in.Stdout, in.Stderr = &out, &errOut
	runtime.GC()
	return session(w, fs, &out, in.RunScript), nil
}

// heapSampler tracks the peak heap occupied by objects while a session
// runs: live objects plus dead ones not yet swept. The live heap alone is
// only known after each collection, and for a workload whose live heap is
// a few hundred kilobytes its peak varies with collection timing.
type heapSampler struct {
	stopc chan struct{}
	done  chan uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan uint64)}
	sample := []metrics.Sample{{Name: heapMetric}}
	read := func() uint64 {
		metrics.Read(sample)
		if sample[0].Value.Kind() != metrics.KindUint64 {
			return 0
		}
		return sample[0].Value.Uint64()
	}
	go func() {
		peak := read()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				if v := read(); v > peak {
					peak = v
				}
			case <-h.stopc:
				if v := read(); v > peak {
					peak = v
				}
				h.done <- peak
				return
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak, after the sampler has exited.
func (h *heapSampler) stop() uint64 {
	close(h.stopc)
	return <-h.done
}
