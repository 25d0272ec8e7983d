package symexec

import (
	"testing"

	"github.com/soft-testing/soft/internal/sym"
)

// TestIncrementalDeterminism is the acceptance property for the incremental
// solver stack: exhaustive exploration must produce byte-identical results
// across worker counts, each worker answering its queries on its own
// assumption-stack session. Sessions and guarded constraint reuse may only
// change how fast the tree burns down — never an answer, a model, or a
// counter the result serializes. (bitblast's
// TestCanonicalModelMatchesProbesOnPaths checks the same answers and models
// against a fresh solver per path.)
func TestIncrementalDeterminism(t *testing.T) {
	for name, h := range parallelHandlers() {
		t.Run(name, func(t *testing.T) {
			want := fingerprint((&Engine{Workers: 1, WantModels: true}).Run(h))
			for _, workers := range []int{1, 4} {
				e := &Engine{Workers: workers, WantModels: true}
				if got := fingerprint(e.Run(h)); got != want {
					t.Fatalf("workers=%d diverged:\n--- want\n%s--- got\n%s", workers, want, got)
				}
			}
		})
	}
}

// TestIncrementalSessionReuse checks the sessions actually reuse work: on a
// workload whose sibling paths share long constraint prefixes, the session
// must serve far more conjuncts from its activation cache than it encodes
// fresh, and every solve must be an assumption solve.
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
	res := (&Engine{Workers: 1, WantModels: true}).Run(h)
	if res.AssumptionSolves == 0 {
		t.Fatal("run reported no assumption solves")
	}
	if res.ConstraintsReused <= res.AssumptionSolves/4 {
		t.Fatalf("expected heavy constraint reuse on shared prefixes, got %d reused over %d solves",
			res.ConstraintsReused, res.AssumptionSolves)
	}
}
