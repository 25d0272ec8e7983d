package symexec

import (
	"testing"

	"github.com/soft-testing/soft/internal/sym"
)

// TestIncrementalDeterminism is the acceptance property for the incremental
// solver stack: exhaustive exploration must produce byte-identical results
// across incremental on/off × workers 1/4. Assumption-stack sessions and
// guarded constraint reuse may only change how fast the tree burns down —
// never an answer, a model, or a counter the result serializes.
func TestIncrementalDeterminism(t *testing.T) {
	for name, h := range parallelHandlers() {
		t.Run(name, func(t *testing.T) {
			want := fingerprint((&Engine{Workers: 1, WantModels: true}).Run(h))
			for _, workers := range []int{1, 4} {
				for _, incremental := range []bool{false, true} {
					e := &Engine{Workers: workers, WantModels: true, Incremental: incremental}
					if got := fingerprint(e.Run(h)); got != want {
						t.Fatalf("workers=%d incremental=%t diverged:\n--- want\n%s--- got\n%s",
							workers, incremental, want, got)
					}
				}
			}
		})
	}
}

// TestIncrementalSessionReuse checks the incremental mode actually reuses
// work: on a workload whose sibling paths share long constraint prefixes,
// the session must serve far more conjuncts from its activation cache than
// it encodes fresh, and every solve must be an assumption solve.
func TestIncrementalSessionReuse(t *testing.T) {
	h := func(ctx *Context) {
		x := ctx.NewSym("x", 16)
		n := 0
		for i := 0; i < 6; i++ {
			if ctx.Branch(sym.EqConst(sym.Extract(x, i, i), 1)) {
				n++
			}
		}
		ctx.Emit(n)
	}
	res := (&Engine{Workers: 1, WantModels: true, Incremental: true}).Run(h)
	if res.FullSolves != 0 {
		t.Fatalf("incremental run paid %d full solves", res.FullSolves)
	}
	if res.AssumptionSolves == 0 {
		t.Fatal("incremental run reported no assumption solves")
	}
	if res.ConstraintsReused <= res.AssumptionSolves/4 {
		t.Fatalf("expected heavy constraint reuse on shared prefixes, got %d reused over %d solves",
			res.ConstraintsReused, res.AssumptionSolves)
	}

	// Non-incremental runs must report the mirror image.
	res = (&Engine{Workers: 1, WantModels: true}).Run(h)
	if res.AssumptionSolves != 0 || res.ConstraintsReused != 0 {
		t.Fatalf("non-incremental run reported session counters: %d/%d",
			res.AssumptionSolves, res.ConstraintsReused)
	}
	if res.FullSolves == 0 {
		t.Fatal("non-incremental run reported no full solves")
	}
}
