package rewrite

import (
	"reflect"
	"testing"

	"jash/internal/cost"
)

// TestJashPlanShortCircuitMatchesSearch: when the sequential estimate is
// under minGainSeconds JashPlan skips the width search; the search would
// have chosen the same width, graph and estimate.
func TestJashPlanShortCircuitMatchesSearch(t *testing.T) {
	fig1 := [][]string{{"cat"}, {"tr", "A-Z", "a-z"}, {"tr", "-cs", "A-Za-z", `\n`}, {"sort"}}
	report := [][]string{{"grep", " 500 "}, {"cut", "-d", " ", "-f", "1"}, {"sort"}, {"uniq", "-c"}, {"sort", "-rn"}}
	wide := func() *cost.Profile {
		p := cost.IOOptEC2()
		p.Cores = 16
		return p
	}
	for _, c := range []struct {
		name  string
		argvs [][]string
		size  int64
		prof  func() *cost.Profile
	}{
		{"fig1 empty laptop", fig1, 0, cost.Laptop},
		{"fig1 10KiB laptop", fig1, 10 << 10, cost.Laptop},
		{"fig1 1MiB gp3", fig1, 1 << 20, cost.IOOptEC2},
		{"fig1 256KiB gp2", fig1, 256 << 10, cost.StandardEC2},
		{"report 2MiB laptop", report, 2 << 20, cost.Laptop},
		{"report 512KiB 16 cores", report, 512 << 10, wide},
		{"sort 64KiB gp2", [][]string{{"sort"}}, 64 << 10, cost.StandardEC2},
	} {
		t.Run(c.name, func(t *testing.T) {
			g := graphOf(t, c.argvs...)
			in := inputsOf(c.size)
			seq := g.Clone()
			RemoveUselessCat(seq)
			seqEst, err := cost.EstimateGraph(seq, in, c.prof(), true)
			if err != nil {
				t.Fatal(err)
			}
			if seqEst.Seconds >= minGainSeconds {
				t.Fatalf("sequential estimate %.3fs is not under %.2fs: the case does not short-circuit",
					seqEst.Seconds, minGainSeconds)
			}
			got, gdec, err := JashPlan(g, in, c.prof())
			if err != nil {
				t.Fatal(err)
			}
			want, wdec, err := searchWidths(g, seq, seqEst, in, c.prof())
			if err != nil {
				t.Fatal(err)
			}
			if gdec.Width != wdec.Width || gdec.Strategy != wdec.Strategy {
				t.Errorf("width %d (%s), search chose %d (%s)", gdec.Width, gdec.Strategy, wdec.Width, wdec.Strategy)
			}
			if !reflect.DeepEqual(gdec.Estimate, wdec.Estimate) ||
				!reflect.DeepEqual(gdec.SequentialEstimate, wdec.SequentialEstimate) {
				t.Errorf("estimates %+v / %+v, search %+v / %+v",
					gdec.Estimate, gdec.SequentialEstimate, wdec.Estimate, wdec.SequentialEstimate)
			}
			if got.Dot() != want.Dot() {
				t.Errorf("graph\n%s\nsearch chose\n%s", got.Dot(), want.Dot())
			}
		})
	}
}
