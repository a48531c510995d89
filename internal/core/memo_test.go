package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"jash/internal/cost"
	"jash/internal/syntax"
	"jash/internal/trace"
	"jash/internal/vfs"
)

const loopScript = "i=0; while [ $i -lt 300 ]; do i=$((i+1)); done; echo $i\n"

// TestStaticMemoKeepsCountsAndTrace: a loop whose pipelines are all
// statically ineligible is declined from the memo after the first
// iteration, with the same counts and the same pipeline spans a traced
// session (which takes the full path) records.
func TestStaticMemoKeepsCountsAndTrace(t *testing.T) {
	s, out, _ := newShell(vfs.New(), cost.Laptop(), ModeJash)
	if st, err := s.Run(loopScript); err != nil || st != 0 || out.String() != "300\n" {
		t.Fatalf("st=%d err=%v out=%q", st, err, out.String())
	}
	// i=0, the while loop, 301 tests, 300 increments and the echo.
	if want := 1 + 1 + 301 + 300 + 1; s.Stats.Interpreted != want || s.Stats.Optimized != 0 {
		t.Fatalf("interpreted=%d optimized=%d, want %d and 0", s.Stats.Interpreted, s.Stats.Optimized, want)
	}
	// Every pipeline but the echo is refused statically (echo only
	// dynamically: it reads no file).
	if n := len(s.ineligible); n != 4 {
		t.Errorf("memo holds %d pipelines, want 4", n)
	}

	ts, tout, _ := newShell(vfs.New(), cost.Laptop(), ModeJash)
	var buf bytes.Buffer
	ts.EnableTracing(trace.New(trace.Options{Writer: &buf}))
	if _, err := ts.Run(loopScript); err != nil || tout.String() != "300\n" {
		t.Fatalf("traced run: err=%v out=%q", err, tout.String())
	}
	if ts.Stats.Interpreted != s.Stats.Interpreted {
		t.Errorf("traced interpreted=%d, untraced %d", ts.Stats.Interpreted, s.Stats.Interpreted)
	}
	d := readTrace(t, ts, &buf)
	spans := 0
	for _, sp := range d.Spans {
		if sp.Name != "pipeline" {
			continue
		}
		spans++
		if sp.Attrs["outcome"] != "interpret" || sp.Attrs["reason"] != "ineligible" {
			t.Fatalf("pipeline span attrs %v", sp.Attrs)
		}
	}
	total := int(metricValue(d, trace.MetricPlansTotal))
	interp := int(metricValue(d, trace.MetricPlansInterp))
	if spans != s.Stats.Interpreted || total != spans || interp != spans {
		t.Errorf("spans=%d plans_total=%d plans_interpreted=%d, want %d each",
			spans, total, interp, s.Stats.Interpreted)
	}
}

// TestStaticMemoBounded: eval parses a fresh pipeline on every iteration;
// the memo resets at its limit instead of growing, and the next top-level
// command starts it empty.
func TestStaticMemoBounded(t *testing.T) {
	s, _, _ := newShell(vfs.New(), cost.Laptop(), ModeJash)
	n := ineligibleMemoLimit + 500
	script := fmt.Sprintf("i=0; while [ $i -lt %d ]; do eval '[ x ]'; i=$((i+1)); done\n", n)
	if _, err := s.Run(script); err != nil {
		t.Fatal(err)
	}
	if got := len(s.ineligible); got > ineligibleMemoLimit || got < 500 {
		t.Errorf("memo holds %d pipelines after %d evals, want 500..%d", got, n, ineligibleMemoLimit)
	}
	if _, err := s.Run("[ x ]\n"); err != nil {
		t.Fatal(err)
	}
	if got := len(s.ineligible); got != 1 {
		t.Errorf("memo holds %d pipelines after a one-pipeline command, want 1", got)
	}
}

func firstPipeline(t *testing.T, src string) *syntax.Pipeline {
	t.Helper()
	script, err := syntax.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return script.Stmts[0].AndOr.First
}

// TestStaticIneligibility covers each static verdict, and the command
// words whose expansion depends on state, which the name verdict skips.
func TestStaticIneligibility(t *testing.T) {
	s := New(vfs.New(), cost.Laptop(), ModeJash)
	for _, c := range []struct {
		src  string
		want bool
	}{
		{"sort /f | uniq -c", false},
		{"sort $f | uniq >$o", false},
		{"sort </f >>/g", false},
		{"{ sort /f; } | uniq", true}, // compound stage
		{"X=1 sort /f", true},         // assignment
		{"x=1", true},                 // no words
		{"sort /f 2>/e", true},        // stderr redirection
		{"sort /f >/o | uniq", true},  // stdout redirected mid-pipeline
		{"sort $(cat /f)", true},      // command substitution
		{"sort ${f=/x}", true},        // ${x=w} assigns
		{"[ $i -lt 3 ]", true},        // unknown literal name
		{"'sortx' /f", true},          // quoted: never split by IFS
		{"\"[\" x ]", true},           // quoted unknown name
		{"sortx /f", false},           // IFS=x makes it sort
		{"so[r]t /f", false},          // glob may match a file named sort
		{"s* /f", false},              // glob
		{"~/bin/sort /f", false},      // tilde reads HOME
		{"\\sort /f", false},          // backslash: skipped
		{"$cmd /f", false},            // dynamic name
		{"cat /f | frobnicate", true}, // unknown name in a later stage
	} {
		if got := s.staticallyIneligible(firstPipeline(t, c.src)); got != c.want {
			t.Errorf("staticallyIneligible(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

// TestIFSCutsLiteralCommandName: the expander splits unquoted literal
// text on IFS, so `sortx` runs as sort when IFS=x. The static verdict
// must leave that to the dynamic analysis rather than refuse it.
func TestIFSCutsLiteralCommandName(t *testing.T) {
	run := func(mode Mode) (*Shell, string) {
		fs := vfs.New()
		fs.WriteFile("/f", []byte("b\na\n"))
		s, out, _ := newShell(fs, cost.Laptop(), mode)
		if _, err := s.Run("IFS=x\nsortx /f\n"); err != nil {
			t.Fatal(err)
		}
		return s, out.String()
	}
	s, got := run(ModeJash)
	_, want := run(ModeBash)
	if got != want {
		t.Errorf("jash %q, bash mode %q", got, want)
	}
	if s.Stats.Optimized != 1 {
		t.Errorf("optimized=%d, want the IFS-split sort compiled as before", s.Stats.Optimized)
	}
}

// TestJITHonoursShadowingFunctions: a shell function named like a library
// command is what the interpreter runs, so the JIT must not compile the
// command — alone or piped — and unset -f must re-admit it.
func TestJITHonoursShadowingFunctions(t *testing.T) {
	for _, sep := range []string{"\n", "; "} {
		script := strings.Join([]string{
			"sort() { echo shadowed; }", "sort /t", "cat /t | sort",
			"unset -f sort", "sort /t", "cat /t | sort",
		}, sep) + "\n"
		outs := map[Mode]string{}
		for _, mode := range []Mode{ModeBash, ModeJash} {
			fs := vfs.New()
			fs.WriteFile("/t", []byte("b\na\n"))
			s, out, _ := newShell(fs, cost.Laptop(), mode)
			if st, err := s.Run(script); err != nil || st != 0 {
				t.Fatalf("%s %q: st=%d err=%v", mode, sep, st, err)
			}
			outs[mode] = out.String()
			if mode == ModeJash && s.Stats.Optimized != 2 {
				t.Errorf("%q: optimized=%d, want only the two pipelines after unset -f",
					sep, s.Stats.Optimized)
			}
		}
		if want := "shadowed\nshadowed\na\nb\na\nb\n"; outs[ModeBash] != want || outs[ModeJash] != want {
			t.Errorf("%q: bash mode %q, jash %q, want %q", sep, outs[ModeBash], outs[ModeJash], want)
		}
	}
}

// TestListRegionPlansOnProfileSnapshot runs a reportgen-shaped line:
// independent grep|sort statements planned concurrently by list-region
// workers while others charge the live profile. Under -race it fails if
// planning reads the device credit balances without the session lock.
func TestListRegionPlansOnProfileSnapshot(t *testing.T) {
	fs := vfs.New()
	var assigns, stmts []string
	for i := 1; i <= 4; i++ {
		wordsFile(fs, fmt.Sprintf("/logs/w%d.log", i), 300)
		assigns = append(assigns, fmt.Sprintf("W%d=/logs/w%d.log", i, i))
		stmts = append(stmts, fmt.Sprintf(`grep "an" "$W%d" | sort >"$OUT/n%d"`, i, i))
	}
	fs.WriteFile("/report/.keep", nil)
	s, _, _ := newShell(fs, cost.Laptop(), ModeJash)
	script := strings.Join(assigns, "; ") + "; OUT=/report\n" + strings.Join(stmts, "; ") + "\n"
	for r := 0; r < 5; r++ {
		if st, err := s.Run(script); err != nil || st != 0 {
			t.Fatalf("run %d: st=%d err=%v", r, st, err)
		}
	}
	if s.Stats.ListParallel == 0 || s.Stats.Optimized == 0 {
		t.Fatalf("list-parallel=%d optimized=%d: the planning path was not exercised",
			s.Stats.ListParallel, s.Stats.Optimized)
	}
}
