package interp

import (
	"fmt"
	"runtime"
	"testing"

	"jash/internal/vfs"
)

// TestProgCacheBoundedUnderEval: eval parses fresh statements on every
// iteration; the compile cache must reset at its limit rather than keep
// every one, so live heap stays flat as the loop runs on.
func TestProgCacheBoundedUnderEval(t *testing.T) {
	in := New(vfs.New())
	liveAfter := func(n int) uint64 {
		t.Helper()
		src := fmt.Sprintf(`while [ $i -lt %d ]; do eval "x=\$i"; i=$((i+1)); done`, n)
		if st, err := in.RunScript(src); err != nil || st != 0 {
			t.Fatalf("st=%d err=%v", st, err)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	if _, err := in.RunScript("i=0"); err != nil {
		t.Fatal(err)
	}
	h10k := liveAfter(10000)
	h40k := liveAfter(40000)
	if in.Vars["x"].Value != "39999" {
		t.Fatalf("x=%q", in.Vars["x"].Value)
	}
	const slack = 4 << 20
	if h40k > h10k+slack {
		t.Errorf("live heap %d B after 40k evals, %d B after 10k: grew by more than %d B",
			h40k, h10k, slack)
	}
	if n := in.cache.n.Load(); n > progCacheLimit {
		t.Errorf("cache counts %d entries, limit %d", n, progCacheLimit)
	}
}
