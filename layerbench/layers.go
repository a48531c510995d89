package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"jash/internal/analysis"
	"jash/internal/core"
	"jash/internal/coreutils"
	"jash/internal/cost"
	"jash/internal/dfg"
	"jash/internal/exec"
	"jash/internal/expand"
	"jash/internal/interp"
	"jash/internal/rewrite"
	"jash/internal/spec"
	"jash/internal/syntax"
	"jash/internal/trace"
	"jash/internal/vfs"
)

// The traced run has two phases on one timeline.
//
//  1. Session: the workload runs under core.Shell with a wrapper on the
//     public Interp.Observer hook. The wrapper times every call into the
//     JIT and, after the call, captures each candidate pipeline with the
//     shell state it was offered under. Before each top-level command the
//     runner captures the state list planning sees.
//  2. Replay: every captured command and pipeline is pushed again, one
//     call at a time, through the public functions of each layer —
//     syntax, expand, dfg, analysis, rewrite, cost, exec, coreutils — with
//     a span around each call.
//
// Each instant of the traced wall belongs to exactly one layer or to
// bench.unattributed_s, so the layer self times and the unattributed time
// sum to the traced wall.

// utilities are the coreutils whose stage replays are reported.
var utilities = []string{"cat", "tr", "sort", "uniq", "head", "grep", "cut", "wc"}

// maxSpans bounds the spans kept in memory (and written out) per run.
const maxSpans = 100000

// spanRec is one recorded span. Spans of one replayed command or pipeline
// share Req.
type spanRec struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Req     int    `json:"req"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
}

const (
	sessionSpanID = 1
	replaySpanID  = 2
)

// spanLog keeps spans in memory, relative to one epoch.
type spanLog struct {
	epoch   time.Time
	spans   []spanRec
	dropped int
}

func (l *spanLog) add(parent int, name string, req int, start time.Time, d time.Duration) {
	if len(l.spans) >= maxSpans {
		l.dropped++
		return
	}
	l.spans = append(l.spans, spanRec{ID: len(l.spans) + 3, Parent: parent, Name: name, Req: req,
		StartUS: start.Sub(l.epoch).Microseconds(), DurUS: d.Microseconds()})
}

// cover accumulates the wall time during which at least one of several
// possibly concurrent intervals is open.
type cover struct {
	open    int
	since   time.Time
	covered time.Duration
}

func (c *cover) enter(now time.Time) {
	if c.open == 0 {
		c.since = now
	}
	c.open++
}

func (c *cover) exit(now time.Time) {
	c.open--
	if c.open == 0 {
		c.covered += now.Sub(c.since)
	}
}

// snapshot is the interpreter state a replayed call needs.
type snapshot struct {
	vars     map[string]interp.Variable
	funcs    map[string]syntax.Command
	params   []string
	name0    string
	status   int
	pid      int
	dir      string
	noGlob   bool
	errExit  bool
	hasTraps bool
}

func takeSnapshot(in *interp.Interp) snapshot {
	s := snapshot{
		vars:   make(map[string]interp.Variable, len(in.Vars)),
		params: append([]string(nil), in.Params...),
		name0:  in.Name0, status: in.Status, pid: in.PID, dir: in.Dir,
		noGlob: in.NoGlob, errExit: in.ErrExit, hasTraps: len(in.Traps) > 0,
	}
	for k, v := range in.Vars {
		s.vars[k] = v
	}
	if len(in.Funcs) > 0 {
		s.funcs = make(map[string]syntax.Command, len(in.Funcs))
		for k, v := range in.Funcs {
			s.funcs[k] = v
		}
	}
	return s
}

func (s snapshot) lookup(name string) (string, bool) {
	v, ok := s.vars[name]
	return v.Value, ok
}

// expander mirrors the JIT's planning expander: no Set, no command
// substitution.
func (s snapshot) expander(fs *vfs.FS) *expand.Expander {
	return &expand.Expander{Lookup: s.lookup, Params: s.params, Name0: s.name0,
		Status: s.status, PID: s.pid, FS: fs, Dir: s.dir, NoGlob: s.noGlob}
}

// offer is one pipeline the interpreter offered the JIT.
type offer struct {
	st   *syntax.Stmt
	snap snapshot
}

// topCommand is one top-level command sent to Shell.Run.
type topCommand struct {
	src  string
	snap snapshot
}

// observeTracer wraps the JIT's observer hook. Worker clones of list
// regions call it concurrently, so all state is under mu.
type observeTracer struct {
	mu       sync.Mutex
	log      *spanLog
	observe  cover // inside the JIT
	wrapper  cover // inside the JIT or capturing state
	calls    int
	declined time.Duration
	offers   []offer
	commands []topCommand
}

type observerFunc = func(*interp.Interp, *syntax.Stmt) (int, bool)

func (t *observeTracer) wrap(next observerFunc) observerFunc {
	return func(in *interp.Interp, st *syntax.Stmt) (int, bool) {
		t.mu.Lock()
		start := time.Now()
		t.observe.enter(start)
		t.wrapper.enter(start)
		t.mu.Unlock()

		status, handled := next(in, st)

		t.mu.Lock()
		end := time.Now()
		t.observe.exit(end)
		t.calls++
		if !handled {
			t.declined += end.Sub(start)
		}
		t.log.add(sessionSpanID, "core.observe", t.calls, start, end.Sub(start))
		t.mu.Unlock()

		// The interpreter runs a declined statement only after this
		// returns, so the state captured here is the state it was offered
		// under.
		var o offer
		keep := candidate(st)
		if keep {
			o = offer{st: st, snap: takeSnapshot(in)}
		}
		t.mu.Lock()
		if keep {
			t.offers = append(t.offers, o)
		}
		t.wrapper.exit(time.Now())
		t.mu.Unlock()
		return status, handled
	}
}

// instrument installs the wrapper and returns the runner that captures
// the list-planning state before each top-level command.
func (t *observeTracer) instrument(sh *core.Shell) runner {
	sh.Interp.Observer = t.wrap(sh.Interp.Observer)
	return func(src string) (int, error) {
		t.mu.Lock()
		start := time.Now()
		if t.log.epoch.IsZero() {
			t.log.epoch = start
		}
		t.wrapper.enter(start)
		t.mu.Unlock()
		snap := takeSnapshot(sh.Interp)
		t.mu.Lock()
		t.commands = append(t.commands, topCommand{src: src, snap: snap})
		t.wrapper.exit(time.Now())
		t.mu.Unlock()
		return sh.Run(src)
	}
}

// candidate is the JIT's syntactic eligibility gate: a plain foreground
// pipeline of simple commands with arguments and no assignments.
func candidate(st *syntax.Stmt) bool {
	pl := st.AndOr.First
	if st.Background || pl.Negated || len(st.AndOr.Rest) > 0 {
		return false
	}
	for _, c := range pl.Cmds {
		sc, ok := c.(*syntax.SimpleCommand)
		if !ok || len(sc.Assigns) > 0 || len(sc.Args) == 0 {
			return false
		}
	}
	return true
}

// decision is the part of a JIT decision the consistency check compares.
type decision struct {
	text     string // pipeline text; empty for list decisions
	strategy string
	width    int
}

func (d decision) String() string {
	return fmt.Sprintf("%s width=%d %q", d.strategy, d.width, d.text)
}

func isListStrategy(s string) bool { return strings.HasSuffix(s, "-list") }

func decisionsOf(st *core.Stats) []decision {
	var out []decision
	for _, d := range st.Decisions {
		text := d.Pipeline
		if isListStrategy(d.Strategy) {
			text = ""
		}
		out = append(out, decision{text, d.Strategy, d.Width})
	}
	return out
}

// compareDecisions lists the differences between two decision records.
// List decisions are made one top-level command at a time and compare in
// order; pipeline decisions inside concurrent list regions interleave, so
// they compare as multisets.
func compareDecisions(what string, want, got []decision) []string {
	split := func(ds []decision) (lists, pipes []string) {
		for _, d := range ds {
			if isListStrategy(d.strategy) {
				lists = append(lists, d.String())
			} else {
				pipes = append(pipes, d.String())
			}
		}
		sort.Strings(pipes)
		return lists, pipes
	}
	wl, wp := split(want)
	gl, gp := split(got)
	var out []string
	diff := func(kind string, a, b []string) {
		for i := 0; i < len(a) || i < len(b); i++ {
			var x, y string
			if i < len(a) {
				x = a[i]
			}
			if i < len(b) {
				y = b[i]
			}
			if x != y {
				out = append(out, fmt.Sprintf("%s %s decision %d: untraced %q, %s %q", what, kind, i, x, what, y))
			}
		}
	}
	diff("list", wl, gl)
	diff("pipeline", wp, gp)
	return out
}

// layerStats accumulates the replay's self times and counts.
type layerStats struct {
	parse, expand, build, preflight, plan, listpar, estimate, execRun time.Duration
	commands, words, nodes, hazards, plans, parallelPlans             int
	listOffered, listPlaced                                           int
	execBusy, blockedRead, blockedWrite                               time.Duration
	bytesMoved, peakBuffered                                          int64
	retries                                                           int
	modelRatios                                                       []float64
	utilTime                                                          map[string]time.Duration
	utilAlloc                                                         map[string]uint64
	decisions                                                         []decision
}

// replayer pushes captured work through each layer's public functions.
type replayer struct {
	fs     *vfs.FS
	lib    *spec.Library
	prof   *cost.Profile
	log    *spanLog
	tracer *trace.Tracer
	st     layerStats
	req    int
}

// timed runs f and records its duration as a span of the named layer.
func (r *replayer) timed(acc *time.Duration, name string, f func()) {
	start := time.Now()
	f()
	d := time.Since(start)
	*acc += d
	r.log.add(replaySpanID, name, r.req, start, d)
}

// command replays one top-level command: parsing, then list planning.
func (r *replayer) command(c topCommand) error {
	rest := c.src
	for rest != "" {
		var stmts []*syntax.Stmt
		var n int
		var err error
		r.timed(&r.st.parse, "syntax.parse", func() { stmts, n, err = syntax.ParseCommand(rest) })
		if err != nil {
			return fmt.Errorf("parse %q: %w", c.src, err)
		}
		if n == 0 {
			break
		}
		rest = rest[n:]
		if len(stmts) == 0 {
			continue
		}
		r.st.commands++
		r.listPlan(stmts, c.snap)
	}
	return nil
}

// listPlan mirrors the gates in front of the JIT's list planner.
func (r *replayer) listPlan(stmts []*syntax.Stmt, snap snapshot) {
	if snap.errExit || snap.hasTraps {
		return
	}
	cand := stmts
	if len(stmts) == 1 {
		if body, ok := rewrite.FlattenBrace(stmts[0]); ok {
			cand = body
		} else if fc := soleFor(stmts[0]); fc != nil {
			if un, _, ok := rewrite.UnrollFor(fc); ok {
				cand = un
			}
		}
	}
	if len(cand) < 2 {
		return
	}
	opts := rewrite.ListOptions{
		Lib: r.lib, Dir: snap.dir, Cores: r.prof.Cores, Lookup: snap.lookup,
		IsFunc:     func(name string) bool { _, ok := snap.funcs[name]; return ok },
		IsReadonly: func(name string) bool { return snap.vars[name].ReadOnly },
		FuncBody:   func(name string) syntax.Command { return snap.funcs[name] },
	}
	var dec rewrite.ListDecision
	r.timed(&r.st.listpar, "rewrite.listpar", func() { _, dec = rewrite.ParallelizeList(cand, opts) })
	r.st.listOffered += len(cand)
	r.st.listPlaced += dec.Statements
	if dec.Parallel {
		r.st.decisions = append(r.st.decisions, decision{"", "parallel-list", dec.Width})
	} else {
		r.st.decisions = append(r.st.decisions, decision{"", "sequential-list", 0})
	}
}

func soleFor(st *syntax.Stmt) *syntax.ForClause {
	if st.Background || len(st.AndOr.Rest) > 0 {
		return nil
	}
	pl := st.AndOr.First
	if pl.Negated || len(pl.Cmds) != 1 {
		return nil
	}
	fc, _ := pl.Cmds[0].(*syntax.ForClause)
	return fc
}

// pipeline replays one offered pipeline through expansion, translation,
// preflight, planning, estimation, execution and per-stage utilities,
// mirroring the JIT's own sequence of calls.
func (r *replayer) pipeline(o offer) error {
	pl := o.st.AndOr.First
	x := o.snap.expander(r.fs)
	dir := o.snap.dir
	var binding dfg.Binding
	var argvs [][]string
	ok := true
	r.timed(&r.st.expand, "expand", func() {
		for i, c := range pl.Cmds {
			sc := c.(*syntax.SimpleCommand)
			for _, rd := range sc.Redirections {
				switch {
				case i == 0 && rd.Op == syntax.RedirIn && rd.DefaultFD() == 0:
					t, good := expandTarget(x, rd.Target)
					binding.StdinFile, ok = absPath(dir, t), good
				case i == len(pl.Cmds)-1 && (rd.Op == syntax.RedirOut || rd.Op == syntax.RedirAppend) && rd.DefaultFD() == 1:
					t, good := expandTarget(x, rd.Target)
					binding.StdoutFile, binding.StdoutAppend, ok = absPath(dir, t), rd.Op == syntax.RedirAppend, good
				default:
					ok = false
				}
				if !ok {
					return
				}
			}
			if !expand.AnalyzeWords(sc.Args).SafeToExpandEarly() {
				ok = false
				return
			}
			fields, err := x.ExpandWords(sc.Args)
			if err != nil || len(fields) == 0 {
				ok = false
				return
			}
			r.st.words += len(sc.Args)
			argvs = append(argvs, fields)
		}
	})
	if !ok {
		return nil
	}
	var g *dfg.Graph
	var err error
	r.timed(&r.st.build, "dfg.build", func() { g, err = dfg.FromPipeline(argvs, r.lib, binding) })
	if err != nil {
		return nil
	}
	r.st.nodes += len(g.Nodes)
	for _, src := range g.Sources() {
		if src.Path == "" || !r.fs.Exists(absPath(dir, src.Path)) {
			return nil
		}
	}
	facts := cost.Inputs{
		Size: func(p string) int64 {
			fi, err := r.fs.Stat(absPath(dir, p))
			if err != nil {
				return 0
			}
			return fi.Size
		},
		DeviceOf: func(p string) string { return r.fs.DeviceFor(absPath(dir, p)) },
	}
	text := syntax.PrintStmts([]*syntax.Stmt{o.st})
	var hz []analysis.Hazard
	r.timed(&r.st.preflight, "analysis.preflight", func() { hz = analysis.GraphHazards(g, r.lib, dir) })
	if len(hz) > 0 {
		r.st.hazards += len(hz)
		r.st.decisions = append(r.st.decisions, decision{text, "hazard-reject", 0})
		return nil
	}
	var chosen *dfg.Graph
	var dec rewrite.Decision
	r.timed(&r.st.plan, "rewrite.plan", func() { chosen, dec, err = rewrite.JashPlan(g, facts, r.prof) })
	if err != nil {
		return nil
	}
	var est cost.Estimate
	r.timed(&r.st.estimate, "cost.estimate", func() { est, err = cost.EstimateGraph(chosen, facts, r.prof, false) })
	if err != nil {
		return nil
	}
	r.st.plans++
	strategy := "sequential-df"
	if dec.Width > 1 {
		strategy = "parallel-df"
		r.st.parallelPlans++
	}
	r.st.decisions = append(r.st.decisions, decision{text, strategy, dec.Width})

	metrics := &exec.RunMetrics{}
	var stderr bytes.Buffer
	root := r.tracer.Start(nil, "replay-exec")
	env := &exec.Env{FS: r.fs, Dir: dir, Stdin: strings.NewReader(""), Stdout: io.Discard,
		Stderr: &stderr, Getenv: func(n string) string { v, _ := o.snap.lookup(n); return v },
		Metrics: metrics, Lib: r.lib, Span: root}
	var status int
	before := r.st.execRun
	r.timed(&r.st.execRun, "exec.run", func() { status, err = exec.RunContext(context.Background(), chosen, env) })
	execWall := r.st.execRun - before
	root.End()
	if err != nil || status != 0 {
		return fmt.Errorf("replayed plan %q: status %d, error %v, stderr %q", text, status, err, stderr.String())
	}
	for _, n := range metrics.Nodes {
		r.st.execBusy += n.Wall - n.BlockedRead - n.BlockedWrite
		r.st.blockedRead += n.BlockedRead
		r.st.blockedWrite += n.BlockedWrite
	}
	r.st.bytesMoved += metrics.TotalBytesMoved()
	if p := metrics.MaxPeakBuffered(); p > r.st.peakBuffered {
		r.st.peakBuffered = p
	}
	r.st.retries += metrics.Retries
	if execWall > 0 {
		r.st.modelRatios = append(r.st.modelRatios, est.Seconds/execWall.Seconds())
	}
	return r.stages(argvs, binding, o.snap)
}

// stages runs each stage of an optimized pipeline alone through
// coreutils.Lookup on its materialized input, timing every utility.
func (r *replayer) stages(argvs [][]string, b dfg.Binding, snap snapshot) error {
	var input []byte
	if b.StdinFile != "" {
		data, err := r.fs.ReadFile(b.StdinFile)
		if err != nil {
			return err
		}
		input = data
	}
	for _, argv := range argvs {
		fn, ok := coreutils.Lookup(argv[0])
		if !ok {
			return fmt.Errorf("no utility %q", argv[0])
		}
		var out, errOut bytes.Buffer
		ctx := &coreutils.Context{FS: r.fs, Dir: snap.dir, Stdin: bytes.NewReader(input),
			Stdout: &out, Stderr: &errOut, Getenv: func(n string) string { v, _ := snap.lookup(n); return v }}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		acc := r.st.utilTime[argv[0]]
		var status int
		r.timed(&acc, "coreutils."+argv[0], func() { status = fn(ctx, argv) })
		runtime.ReadMemStats(&after)
		r.st.utilTime[argv[0]] = acc
		r.st.utilAlloc[argv[0]] += after.TotalAlloc - before.TotalAlloc
		if status != 0 {
			return fmt.Errorf("stage %q: status %d: %s", strings.Join(argv, " "), status, errOut.String())
		}
		input = out.Bytes()
	}
	return nil
}

func expandTarget(x *expand.Expander, w *syntax.Word) (string, bool) {
	if !expand.AnalyzeWord(w).SafeToExpandEarly() {
		return "", false
	}
	v, err := x.ExpandString(w)
	return v, err == nil
}

func absPath(dir, p string) string {
	if p == "" || p[0] == '/' {
		return p
	}
	if dir == "" || dir == "/" {
		return "/" + p
	}
	return dir + "/" + p
}

// tracedResult is what a traced run reports.
type tracedResult struct {
	metrics   map[string]metric
	attempted int
	failed    int
	failures  []string
	problems  []string // consistency-check failures
	tracePath string
}

// tracedRun measures the per-layer metrics for one workload. It first
// runs one untraced JIT session to fix the reference decisions, then
// alternates untraced JIT, traced JIT and interpreter sessions until the
// time is up, and finally replays the last traced session.
func tracedRun(w *workloadSpec, seconds time.Duration, traceDir string, tag string) (*tracedResult, error) {
	res := &tracedResult{metrics: map[string]metric{}}
	count := func(r sessionResult) {
		res.attempted += r.attempted
		res.failed += r.failed
		res.failures = append(res.failures, r.failures...)
	}
	ref, _, err := jitSession(w, nil)
	if err != nil {
		return nil, err
	}
	count(ref)
	want := decisionsOf(ref.stats)

	var untraced, traced, plain []float64
	var last *observeTracer
	var lastFS *vfs.FS
	var lastWall time.Duration
	var lastStats *core.Stats
	// As in endToEnd, a round starts only if half an average round fits.
	start := time.Now()
	deadline := start.Add(seconds)
	for i := 0; i < 2 || time.Until(deadline) > time.Since(start)/time.Duration(2*i); i++ {
		u, _, err := jitSession(w, nil)
		if err != nil {
			return nil, err
		}
		count(u)
		untraced = append(untraced, u.wall.Seconds())

		t := &observeTracer{log: &spanLog{}}
		tres, fs, err := jitSession(w, t.instrument)
		if err != nil {
			return nil, err
		}
		count(tres)
		traced = append(traced, tres.wall.Seconds())
		last, lastFS, lastWall, lastStats = t, fs, tres.wall, tres.stats

		p, err := interpSession(w)
		if err != nil {
			return nil, err
		}
		count(p)
		plain = append(plain, p.wall.Seconds())
	}
	res.problems = append(res.problems, compareDecisions("traced", want, decisionsOf(lastStats))...)

	// Replay the last traced session on its own filesystem, after its
	// outputs were checked.
	log := last.log
	rp := &replayer{fs: lastFS, lib: spec.Builtin(), prof: profile(), log: log,
		tracer: trace.New(trace.Options{}),
		st:     layerStats{utilTime: map[string]time.Duration{}, utilAlloc: map[string]uint64{}}}
	runtime.GC()
	replayStart := time.Now()
	for i, c := range last.commands {
		rp.req = i + 1
		if err := rp.command(c); err != nil {
			return nil, err
		}
	}
	for i, o := range last.offers {
		rp.req = i + 1
		if err := rp.pipeline(o); err != nil {
			return nil, err
		}
	}
	replayWall := time.Since(replayStart)
	res.problems = append(res.problems, compareDecisions("replayed", want, rp.st.decisions)...)

	st := rp.st
	tracedWall := lastWall + replayWall
	observe := last.observe.covered
	interpSelf := lastWall - last.wrapper.covered
	selfTimes := []time.Duration{st.parse, st.expand, st.build, st.preflight, st.plan, st.listpar,
		st.estimate, st.execRun, observe, interpSelf}
	for _, d := range st.utilTime {
		selfTimes = append(selfTimes, d)
	}
	var attributed time.Duration
	for _, d := range selfTimes {
		attributed += d
	}
	unattributed := tracedWall - attributed
	if unattributed < 0 {
		res.problems = append(res.problems, fmt.Sprintf(
			"layer self times %.6fs exceed the traced wall %.6fs", attributed.Seconds(), tracedWall.Seconds()))
	}

	m := res.metrics
	sec := func(name string, d time.Duration) { m[name] = metric{d.Seconds(), "s"} }
	num := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	sec("syntax.parse_s", st.parse)
	num("syntax.commands", float64(st.commands), "count")
	sec("expand.expand_s", st.expand)
	num("expand.words", float64(st.words), "count")
	sec("dfg.build_s", st.build)
	num("dfg.nodes", float64(st.nodes), "count")
	sec("analysis.preflight_s", st.preflight)
	num("analysis.hazards", float64(st.hazards), "count")
	sec("rewrite.plan_s", st.plan)
	num("rewrite.plans", float64(st.plans), "count")
	num("rewrite.parallel_frac", ratio(st.parallelPlans, st.plans), "ratio")
	sec("rewrite.listpar_s", st.listpar)
	num("rewrite.listpar_frac", ratio(st.listPlaced, st.listOffered), "ratio")
	sec("cost.estimate_s", st.estimate)
	num("cost.model_ratio", median(st.modelRatios), "ratio")
	sec("exec.run_s", st.execRun)
	sec("exec.busy_s", st.execBusy)
	sec("exec.blocked_read_s", st.blockedRead)
	sec("exec.blocked_write_s", st.blockedWrite)
	num("exec.bytes_moved", float64(st.bytesMoved), "bytes")
	num("exec.peak_buffered_bytes", float64(st.peakBuffered), "bytes")
	num("exec.retries", float64(st.retries), "count")
	for _, u := range utilities {
		sec("coreutils."+u+"_s", st.utilTime[u])
		num("coreutils."+u+"_alloc_mb", float64(st.utilAlloc[u])/1e6, "MB")
	}
	for u := range st.utilTime {
		if !contains(utilities, u) {
			res.problems = append(res.problems, fmt.Sprintf("utility %q is not among the reported ones", u))
		}
	}
	sec("core.observe_s", observe)
	num("core.observe_calls", float64(last.calls), "count")
	sec("core.declined_s", last.declined)
	num("core.optimized_frac", ratio(lastStats.Optimized, last.calls), "ratio")
	num("core.fallbacks", float64(lastStats.Fallbacks), "count")
	num("core.hazard_rejects", float64(lastStats.HazardRejects), "count")
	num("core.list_parallel", float64(lastStats.ListParallel), "count")
	sec("interp.self_s", interpSelf)
	num("bench.trace_overhead_pct", 100*(median(traced)/median(untraced)-1), "%")
	sec("bench.unattributed_s", unattributed)
	sec("bench.traced_wall_s", tracedWall)
	num("bench.measured_speedup", median(plain)/median(untraced), "ratio")
	num("bench.consistency_mismatches", float64(len(res.problems)), "count")

	log.spans = append([]spanRec{
		{ID: sessionSpanID, Name: "session", DurUS: lastWall.Microseconds()},
		{ID: replaySpanID, Name: "replay", StartUS: replayStart.Sub(log.epoch).Microseconds(), DurUS: replayWall.Microseconds()},
	}, log.spans...)
	path, err := writeSpans(traceDir, tag, log, rp.tracer)
	if err != nil {
		return nil, err
	}
	res.tracePath = path
	return res, nil
}

// writeSpans writes the benchmark's spans, then the executor's node spans
// from the replay, as JSON lines.
func writeSpans(dir, tag string, log *spanLog, tr *trace.Tracer) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, tag+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range log.spans {
		if err := enc.Encode(s); err != nil {
			return "", err
		}
	}
	if log.dropped > 0 {
		fmt.Fprintf(bw, "{\"dropped_spans\":%d}\n", log.dropped)
	}
	if err := tr.WriteFlight(bw); err != nil {
		return "", err
	}
	if err := bw.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}
