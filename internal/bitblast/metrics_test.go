package bitblast

import (
	"testing"

	"github.com/soft-testing/soft/internal/sym"
)

// TestSessionSolveFeedsSearchCounters checks that one session solve moves
// the SAT search counters by exactly the solver's own Stats delta.
func TestSessionSolveFeedsSearchCounters(t *testing.T) {
	s := NewSession()
	x, y := sym.Var("x", 12), sym.Var("y", 12)
	// Factoring 3127 = 53 * 59 with neither factor 1 takes search.
	s.Assert(sym.Eq(sym.Mul(x, y), sym.Const(12, 3127)))
	s.Assert(sym.Ult(sym.Const(12, 1), x))
	s.Assert(sym.Ult(sym.Const(12, 1), y))

	// A first solve leaves the solver's Stats nonzero, so a counter fed
	// the running totals instead of the delta would show.
	if _, ok := s.SolveCanonical(sym.Ult(x, y)); !ok {
		t.Fatal("3127 = 53 * 59 must be satisfiable")
	}
	before := s.b.S.Stats
	dec, prop, conf := MDecisions.Load(), MPropagations.Load(), MConflicts.Load()
	if _, ok := s.SolveCanonical(sym.Ult(y, x)); !ok {
		t.Fatal("3127 = 59 * 53 must be satisfiable")
	}
	after := s.b.S.Stats
	if after.Decisions == before.Decisions || after.Conflicts == before.Conflicts {
		t.Fatalf("the solve made no decisions or no conflicts (%+v); pick a harder query", after)
	}
	for _, c := range []struct {
		name          string
		counter, want int64
	}{
		{"decisions", MDecisions.Load() - dec, after.Decisions - before.Decisions},
		{"propagations", MPropagations.Load() - prop, after.Propagations - before.Propagations},
		{"conflicts", MConflicts.Load() - conf, after.Conflicts - before.Conflicts},
	} {
		if c.counter != c.want {
			t.Errorf("%s counter moved by %d, solver by %d", c.name, c.counter, c.want)
		}
	}
}
