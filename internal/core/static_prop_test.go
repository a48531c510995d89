package core_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"jash/internal/core"
	"jash/internal/cost"
	"jash/internal/fuzz"
	"jash/internal/interp"
	"jash/internal/syntax"
)

// TestStaticDeclineImpliesFullDecline drives generated programs through
// the JIT and checks every pipeline offered to it: whenever the static
// command-name check (the verdict that is memoized, not just moved) refuses
// a pipeline, the analysis of the live shell state must refuse it too.
// The other static verdicts are the syntactic preconditions the full
// analysis has always checked first.
func TestStaticDeclineImpliesFullDecline(t *testing.T) {
	const programs = 2000
	var mu sync.Mutex
	var offered, declined, admitted int
	var bad []string
	for i := 0; i < programs; i++ {
		p := fuzz.Generate(fuzz.DefaultConfig(uint64(7000 + i)))
		s := core.New(p.Fixture.Build(), cost.StandardEC2(), core.ModeJash)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		s.Ctx = ctx
		next := s.Interp.Observer
		s.Interp.Observer = func(in *interp.Interp, st *syntax.Stmt) (int, bool) {
			pl := st.AndOr.First
			if ok, static, full := s.StaticNameVerdict(in, pl); ok {
				mu.Lock()
				offered++
				if static {
					declined++
				}
				if full {
					admitted++
				}
				if static && full && len(bad) < 5 {
					bad = append(bad, syntax.PrintStmts([]*syntax.Stmt{st}))
				}
				mu.Unlock()
			}
			return next(in, st)
		}
		s.Run(p.Source)
		cancel()
	}
	for _, b := range bad {
		t.Errorf("statically declined but admitted under live state: %s", b)
	}
	t.Logf("%d programs: %d syntactically eligible offers, %d declined by name, %d admitted",
		programs, offered, declined, admitted)
	if declined == 0 || admitted == 0 {
		t.Fatalf("no coverage: %d declined by name, %d admitted", declined, admitted)
	}
}
