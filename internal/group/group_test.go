package group

import (
	"testing"

	"github.com/soft-testing/soft/internal/agents/refswitch"
	"github.com/soft-testing/soft/internal/harness"
	"github.com/soft-testing/soft/internal/solver"
	"github.com/soft-testing/soft/internal/sym"
)

func exploreStats(t *testing.T) *harness.Result {
	t.Helper()
	tt, ok := harness.TestByName("Stats Request")
	if !ok {
		t.Fatal("missing test")
	}
	return harness.Explore(refswitch.New(), tt, harness.Options{})
}

func TestGroupingReducesCount(t *testing.T) {
	in := exploreStats(t)
	g := Paths(in)
	if len(g.Groups) == 0 || len(g.Groups) > len(in.Paths) {
		t.Fatalf("%d groups from %d paths", len(g.Groups), len(in.Paths))
	}
	total := 0
	for _, gr := range g.Groups {
		total += gr.PathCount
	}
	if total != len(in.Paths) {
		t.Fatalf("groups cover %d paths, want %d", total, len(in.Paths))
	}
}

func TestGroupConditionIsDisjunction(t *testing.T) {
	// C(r) must be satisfiable exactly where some member path condition
	// is: every member condition implies the group condition.
	in := exploreStats(t)
	g := Paths(in)
	s := solver.New()
	byCanon := map[string]*Group{}
	for i := range g.Groups {
		byCanon[g.Groups[i].Canonical] = &g.Groups[i]
	}
	for _, p := range in.Paths {
		gr := byCanon[p.Canonical]
		if gr == nil {
			t.Fatalf("path %d not grouped", p.ID)
		}
		// pc ∧ ¬C(r) must be unsatisfiable.
		if s.Sat(p.Cond, sym.LNot(gr.Cond)) {
			t.Fatalf("path %d not subsumed by its group condition", p.ID)
		}
	}
}

func TestGroupsDeterministicOrder(t *testing.T) {
	in := exploreStats(t)
	a, b := Paths(in), Paths(in)
	if len(a.Groups) != len(b.Groups) {
		t.Fatal("group counts differ between runs")
	}
	for i := range a.Groups {
		if a.Groups[i].Canonical != b.Groups[i].Canonical {
			t.Fatal("group order not deterministic")
		}
	}
}

func TestBalancedOrShallowerThanLinear(t *testing.T) {
	x := sym.Var("x", 16)
	var conds []*sym.Expr
	for i := 0; i < 64; i++ {
		conds = append(conds, sym.EqConst(x, uint64(i)))
	}
	bal := BalancedOr(conds)
	lin := LinearOr(conds)
	// The sym constructor flattens nested disjunctions, so the balanced
	// construction can never be deeper than the linear chain (and the
	// flattening itself subsumes the paper's balanced-tree optimization).
	if depth(bal) > depth(lin) {
		t.Fatalf("balanced depth %d deeper than linear %d", depth(bal), depth(lin))
	}
	// Both encode the same predicate.
	s := solver.New()
	if s.Sat(sym.LNot(sym.LOr(sym.LAnd(bal, sym.LNot(lin)), sym.LAnd(lin, sym.LNot(bal))))) == false {
		// equivalence: (bal xor lin) unsat
	}
	if s.Sat(sym.LAnd(bal, sym.LNot(lin))) || s.Sat(sym.LAnd(lin, sym.LNot(bal))) {
		t.Fatal("balanced and linear OR differ semantically")
	}
}

func depth(e *sym.Expr) int {
	d := 0
	for _, k := range e.Kids {
		if kd := depth(k); kd > d {
			d = kd
		}
	}
	return d + 1
}

func TestBalancedOrEdgeCases(t *testing.T) {
	if !BalancedOr(nil).IsFalse() {
		t.Fatal("empty disjunction must be false")
	}
	x := sym.EqConst(sym.Var("x", 8), 1)
	if BalancedOr([]*sym.Expr{x}) != x {
		t.Fatal("singleton disjunction must be the condition itself")
	}
}

func TestGroupKeepsCrashFlagAndModel(t *testing.T) {
	tt, _ := harness.TestByName("Packet Out")
	in := harness.Explore(refswitch.New(), tt, harness.Options{WantModels: true})
	g := Paths(in)
	foundCrash := false
	for _, gr := range g.Groups {
		if gr.Crashed {
			foundCrash = true
			if gr.Model == nil {
				t.Fatal("crash group lost its sample model")
			}
		}
	}
	if !foundCrash {
		t.Fatal("Packet Out grouping lost the crash behavior")
	}
}

func BenchmarkGroupingStatsRequest(b *testing.B) {
	tt, _ := harness.TestByName("Stats Request")
	in := harness.Explore(refswitch.New(), tt, harness.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Paths(in)
	}
}
