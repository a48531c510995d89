package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// A planted wrong reference must be counted as a failure by both engines,
// so a wrong output always raises the error rate.
func TestPlantedWrongOutputRaisesErrorRate(t *testing.T) {
	w := smallfilesWorkload(7)
	w.cmds = w.cmds[:50]
	clean, _, err := jitSession(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if clean.failed != 0 {
		t.Fatalf("clean JIT session failed %d commands: %v", clean.failed, clean.failures)
	}

	planted := w.cmds[17]
	for p, want := range planted.files {
		bad := append([]byte(nil), want...)
		bad[len(bad)-2] ^= 1
		planted.files = map[string][]byte{p: bad}
	}
	w.cmds[17] = planted
	jit, _, err := jitSession(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := interpSession(w)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]sessionResult{"jit": jit, "interp": plain} {
		if r.failed != 1 || r.attempted != 50 {
			t.Errorf("%s: %d of %d commands failed, want 1 of 50 (%v)", name, r.failed, r.attempted, r.failures)
		}
	}

	// A wrong stdout is caught too.
	loop := loopWorkload()
	loop.cmds[0].stdout = "42\n"
	r, _, err := jitSession(loop, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 1 {
		t.Errorf("planted loop sum: %d failures, want 1", r.failed)
	}
}

// Two set-ups from one seed build byte-identical filesystems; another
// seed builds a different one.
func TestSetupDeterministic(t *testing.T) {
	for _, name := range []string{"wordfreq", "smallfiles"} {
		_, a, _, err := setup(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		_, b, _, err := setup(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		_, c, _, err := setup(name, 4)
		if err != nil {
			t.Fatal(err)
		}
		if a != b || a == c {
			t.Errorf("%s: digests seed 3 %s and %s, seed 4 %s", name, a, b, c)
		}
	}
}

// Where GNU coreutils are installed, the Go references must match them
// byte for byte under LC_ALL=C.
func TestReferencesMatchHostCoreutils(t *testing.T) {
	for _, tool := range []string{"sh", "cat", "tr", "sort", "uniq", "head", "grep", "cut", "wc"} {
		if _, err := exec.LookPath(tool); err != nil {
			t.Skipf("%s not installed", tool)
		}
	}
	dir := t.TempDir()
	host := func(script string, files map[string][]byte) string {
		t.Helper()
		for p, data := range files {
			if err := os.WriteFile(filepath.Join(dir, filepath.Base(p)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		cmd := exec.Command("sh", "-c", script)
		cmd.Dir = dir
		cmd.Env = append(os.Environ(), "LC_ALL=C")
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s: %v", script, err)
		}
		return string(out)
	}

	wf := wordfreqWorkload(11)
	if got := host(strings.ReplaceAll(wf.cmds[0].src, "/data/", ""), wf.inputs); got != wf.cmds[0].stdout {
		t.Errorf("wordfreq: host\n%s\nreference\n%s", got, wf.cmds[0].stdout)
	}

	sf := smallfilesWorkload(30)
	for _, c := range sf.cmds[:20] {
		for p, want := range c.files {
			in := strings.TrimSuffix(p, ".cnt")
			got := host("sort "+filepath.Base(in)+" | uniq -c", map[string][]byte{in: sf.inputs[in]})
			if got != string(want) {
				t.Errorf("%s: host %q, reference %q", p, got, want)
			}
		}
	}

	rg := reportgenWorkload(30, reportLogLines)
	all := ""
	for i := 1; i <= reportLogs; i++ {
		log := fmt.Sprintf("/logs/access%d.log", i)
		got := host(`grep " 500 " `+filepath.Base(log)+` | cut -d " " -f 1 | sort | uniq -c | sort -rn`,
			map[string][]byte{log: rg.inputs[log]})
		if want := string(rg.cmds[1].files[fmt.Sprintf("/report/top%d", i)]); got != want {
			t.Errorf("reportgen %s: host output (%d bytes) differs from reference (%d bytes)", log, len(got), len(want))
		}
		all += got
	}
	if got := host("wc -l <all", map[string][]byte{"all": []byte(all)}); got != rg.cmds[1].stdout {
		t.Errorf("reportgen total: host %q, reference %q", got, rg.cmds[1].stdout)
	}
}

// Every run prints exactly the metrics BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	w := smallfilesWorkload(5)
	w.cmds = w.cmds[:20]
	e, err := endToEnd(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	e.metrics["setup_s"] = metric{1, "s"}
	tr, err := tracedRun(w, 0, t.TempDir(), "names")
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.problems) > 0 {
		t.Errorf("consistency problems: %v", tr.problems)
	}
	check := func(kind string, want []struct{ Name, Unit string }, got map[string]metric) {
		if len(want) != len(got) {
			t.Errorf("%s: declared %d metrics, run printed %d", kind, len(want), len(got))
		}
		for _, m := range want {
			if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
				t.Errorf("%s: %s [%s] printed as %+v (present %v)", kind, m.Name, m.Unit, g, ok)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, e.metrics)
	check("per_layer", spec.PerLayer, tr.metrics)
}

// The observer wrapper is called from the workers of a concurrent list
// region; the traced run must stay consistent there (run with -race).
func TestTracedListRegion(t *testing.T) {
	tr, err := tracedRun(reportgenWorkload(3, 2000), 0, t.TempDir(), "listpar")
	if err != nil {
		t.Fatal(err)
	}
	if tr.failed != 0 || len(tr.problems) > 0 {
		t.Fatalf("failures %v, consistency problems %v", tr.failures, tr.problems)
	}
	if got := tr.metrics["core.list_parallel"].Value; got < reportLogs {
		t.Errorf("core.list_parallel = %v, want at least %d statements in regions", got, reportLogs)
	}
}
