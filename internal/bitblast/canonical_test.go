package bitblast

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/soft-testing/soft/internal/sym"
)

// cnfFingerprint renders a blaster's full CNF (variable count, level-0
// units, clauses in insertion order) for byte comparison.
func cnfFingerprint(b *Blaster) string {
	n, clauses := b.S.DumpCNF()
	return fmt.Sprintf("nvars=%d clauses=%v", n, clauses)
}

// testExpr is a representative mixed expression touching several variables
// and operator classes, so the traversal order actually matters.
func testExpr() *sym.Expr {
	x := sym.Var("x", 16)
	y := sym.Var("y", 8)
	z := sym.Var("z", 4)
	return sym.LAnd(
		sym.Ult(sym.Add(x, sym.ZExt(y, 16)), sym.Const(16, 0x4000)),
		sym.LOr(
			sym.EqConst(sym.And(x, sym.Const(16, 0xff)), 0x12),
			sym.Eq(sym.ZExt(z, 8), y),
		),
		sym.Ne(sym.Mul(y, sym.Const(8, 3)), sym.Const(8, 0)),
	)
}

// TestCanonicalCNF is the tentpole regression: identical expressions must
// bit-blast to byte-identical CNF — same variable numbering, same clauses
// in the same order — no matter which worker (goroutine) encodes them.
func TestCanonicalCNF(t *testing.T) {
	ref := func() string {
		b := New()
		b.Assert(testExpr())
		return cnfFingerprint(b)
	}()

	const workers = 8
	got := make([]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := New()
			b.Assert(testExpr())
			got[w] = cnfFingerprint(b)
		}()
	}
	wg.Wait()
	for w, g := range got {
		if g != ref {
			t.Fatalf("worker %d emitted different CNF:\n--- ref\n%s\n--- got\n%s", w, ref, g)
		}
	}
}

// TestCanonicalModel: the canonical witness is the numerically smallest
// model (variables minimized in name order) and does not depend on the
// solving history that preceded its extraction.
func TestCanonicalModel(t *testing.T) {
	x := sym.Var("x", 8)
	y := sym.Var("y", 8)
	cond := sym.LAnd(
		sym.Ugt(x, sym.Const(8, 9)),
		sym.LOr(sym.EqConst(y, 200), sym.Ult(y, sym.Const(8, 100))),
	)

	b1 := New()
	b1.Assert(cond)
	if !b1.Solve() {
		t.Fatal("must be sat")
	}
	m1 := b1.CanonicalModel()
	if m1["x"] != 10 || m1["y"] != 0 {
		t.Fatalf("canonical model %v, want minimal x=10 y=0", m1)
	}

	// A blaster with a different history (extra feasibility probes that
	// reorder the decision queue) must still land on the same canonical
	// model.
	b2 := New()
	b2.Assert(cond)
	b2.SolveAssuming(sym.EqConst(x, 77))
	b2.SolveAssuming(sym.EqConst(y, 200))
	if !b2.Solve() {
		t.Fatal("must be sat")
	}
	if m2 := b2.CanonicalModel(); !reflect.DeepEqual(m1, m2) {
		t.Fatalf("canonical models diverged: %v vs %v", m1, m2)
	}

	// The solver stays usable for further queries afterwards.
	if b1.SolveAssuming(sym.EqConst(x, 5)) {
		t.Fatal("x==5 contradicts x>9")
	}
	if !b1.SolveAssuming(sym.EqConst(x, 42)) {
		t.Fatal("x==42 must remain satisfiable")
	}
}
