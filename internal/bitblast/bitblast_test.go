package bitblast

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/soft-testing/soft/internal/sym"
)

// checkSAT asserts e, solves, and (when SAT) validates the model against the
// sym evaluator — the soundness contract of the whole decision procedure.
func checkSAT(t *testing.T, e *sym.Expr) (bool, sym.Assignment) {
	t.Helper()
	b := New()
	b.Assert(e)
	if !b.Solve() {
		return false, nil
	}
	m := b.Model()
	if !sym.EvalBool(e, m) {
		t.Fatalf("model %v does not satisfy %v", m, e)
	}
	return true, m
}

func TestConstTrue(t *testing.T) {
	if ok, _ := checkSAT(t, sym.Bool(true)); !ok {
		t.Fatal("true must be SAT")
	}
}

func TestConstFalse(t *testing.T) {
	if ok, _ := checkSAT(t, sym.Bool(false)); ok {
		t.Fatal("false must be UNSAT")
	}
}

func TestEqConst(t *testing.T) {
	x := sym.Var("x", 16)
	ok, m := checkSAT(t, sym.EqConst(x, 0xfff8))
	if !ok {
		t.Fatal("x == 0xfff8 must be SAT")
	}
	if m["x"] != 0xfff8 {
		t.Fatalf("model x = %#x, want 0xfff8", m["x"])
	}
}

func TestContradiction(t *testing.T) {
	x := sym.Var("x", 8)
	e := sym.LAnd(sym.EqConst(x, 3), sym.EqConst(x, 4))
	if ok, _ := checkSAT(t, e); ok {
		t.Fatal("x=3 AND x=4 must be UNSAT")
	}
}

func TestUltBounds(t *testing.T) {
	x := sym.Var("x", 8)
	// x < 0 is unsatisfiable.
	if ok, _ := checkSAT(t, sym.Ult(x, sym.Const(8, 0))); ok {
		t.Fatal("x <u 0 must be UNSAT")
	}
	// x < 1 forces x = 0.
	ok, m := checkSAT(t, sym.Ult(x, sym.Const(8, 1)))
	if !ok || m["x"] != 0 {
		t.Fatalf("x <u 1: ok=%v model=%v", ok, m)
	}
	// 255 <= x forces x = 255.
	ok, m = checkSAT(t, sym.Ule(sym.Const(8, 255), x))
	if !ok || m["x"] != 255 {
		t.Fatalf("255 <=u x: ok=%v model=%v", ok, m)
	}
}

func TestAddOverflow(t *testing.T) {
	x := sym.Var("x", 8)
	// x + 1 == 0 forces x = 255 (wraparound).
	ok, m := checkSAT(t, sym.EqConst(sym.Add(x, sym.Const(8, 1)), 0))
	if !ok || m["x"] != 255 {
		t.Fatalf("x+1==0: ok=%v model=%v", ok, m)
	}
}

func TestSub(t *testing.T) {
	x := sym.Var("x", 8)
	y := sym.Var("y", 8)
	e := sym.LAnd(
		sym.EqConst(sym.Sub(x, y), 10),
		sym.EqConst(y, 250),
	)
	ok, m := checkSAT(t, e)
	if !ok {
		t.Fatal("must be SAT")
	}
	if got := (m["x"] - m["y"]) & 0xff; got != 10 {
		t.Fatalf("x-y = %d, want 10 (model %v)", got, m)
	}
}

func TestMul(t *testing.T) {
	x := sym.Var("x", 8)
	// x * 3 == 30 has solution x = 10 (among others mod 256).
	ok, m := checkSAT(t, sym.EqConst(sym.Mul(x, sym.Const(8, 3)), 30))
	if !ok {
		t.Fatal("x*3==30 must be SAT")
	}
	if got := (m["x"] * 3) & 0xff; got != 30 {
		t.Fatalf("model x=%d gives %d", m["x"], got)
	}
}

func TestExtractConcat(t *testing.T) {
	x := sym.Var("x", 16)
	hi := sym.Extract(x, 15, 8)
	lo := sym.Extract(x, 7, 0)
	e := sym.LAnd(sym.EqConst(hi, 0xab), sym.EqConst(lo, 0xcd))
	ok, m := checkSAT(t, e)
	if !ok || m["x"] != 0xabcd {
		t.Fatalf("extract: ok=%v model=%v", ok, m)
	}
	// Concat inverse.
	y := sym.Concat(sym.Const(8, 0x12), sym.Const(8, 0x34))
	ok, _ = checkSAT(t, sym.EqConst(y, 0x1234))
	if !ok {
		t.Fatal("concat const must equal 0x1234")
	}
}

func TestIte(t *testing.T) {
	x := sym.Var("x", 8)
	y := sym.Var("y", 8)
	// (x < 10 ? y : 0) == 7 AND x == 3 forces y = 7.
	e := sym.LAnd(
		sym.EqConst(sym.Ite(sym.Ult(x, sym.Const(8, 10)), y, sym.Const(8, 0)), 7),
		sym.EqConst(x, 3),
	)
	ok, m := checkSAT(t, e)
	if !ok || m["y"] != 7 {
		t.Fatalf("ite: ok=%v model=%v", ok, m)
	}
}

func TestShifts(t *testing.T) {
	x := sym.Var("x", 8)
	ok, m := checkSAT(t, sym.EqConst(sym.Shl(x, 4), 0xf0))
	if !ok || m["x"]&0x0f != 0x0f {
		t.Fatalf("shl: ok=%v model=%v", ok, m)
	}
	ok, m = checkSAT(t, sym.EqConst(sym.Lshr(x, 6), 0x3))
	if !ok || m["x"]>>6 != 3 {
		t.Fatalf("lshr: ok=%v model=%v", ok, m)
	}
}

func TestBitwise(t *testing.T) {
	x := sym.Var("x", 8)
	y := sym.Var("y", 8)
	e := sym.LAnd(
		sym.EqConst(sym.And(x, y), 0x0f),
		sym.EqConst(sym.Or(x, y), 0xff),
		sym.EqConst(sym.Xor(x, y), 0xf0),
	)
	ok, m := checkSAT(t, e)
	if !ok {
		t.Fatal("must be SAT")
	}
	if m["x"]&m["y"] != 0x0f || m["x"]|m["y"] != 0xff || m["x"]^m["y"] != 0xf0 {
		t.Fatalf("bad model %v", m)
	}
}

func TestNotGate(t *testing.T) {
	x := sym.Var("x", 8)
	ok, m := checkSAT(t, sym.EqConst(sym.Not(x), 0x5a))
	if !ok || m["x"] != 0xa5 {
		t.Fatalf("not: ok=%v model=%v", ok, m)
	}
}

func TestZExt(t *testing.T) {
	x := sym.Var("x", 8)
	ok, m := checkSAT(t, sym.EqConst(sym.ZExt(x, 16), 0x00fe))
	if !ok || m["x"] != 0xfe {
		t.Fatalf("zext: ok=%v model=%v", ok, m)
	}
	// zext can never produce a value with high bits set.
	if ok, _ := checkSAT(t, sym.EqConst(sym.ZExt(x, 16), 0x0100)); ok {
		t.Fatal("zext(x,16) == 0x100 must be UNSAT for 8-bit x")
	}
}

func TestSolveAssuming(t *testing.T) {
	b := New()
	x := sym.Var("x", 8)
	b.Assert(sym.Ult(x, sym.Const(8, 10)))
	if !b.SolveAssuming(sym.EqConst(x, 5)) {
		t.Fatal("x<10 with x==5 must be SAT")
	}
	if b.SolveAssuming(sym.EqConst(x, 20)) {
		t.Fatal("x<10 with x==20 must be UNSAT")
	}
	// Assumptions must not stick.
	if !b.SolveAssuming(sym.EqConst(x, 9)) {
		t.Fatal("x<10 with x==9 must be SAT after retracting x==20")
	}
}

func TestSharedSubexpressionEncodedOnce(t *testing.T) {
	b := New()
	x := sym.Var("x", 16)
	shared := sym.Add(x, sym.Const(16, 1))
	e := sym.LAnd(sym.Ult(shared, sym.Const(16, 100)), sym.Ne(shared, sym.Const(16, 5)))
	b.Assert(e)
	before := b.Aux
	b.Assert(sym.Ule(shared, sym.Const(16, 99)))
	// Re-asserting over the same shared node must not re-encode the adder.
	if grew := b.Aux - before; grew > 40 {
		t.Fatalf("shared node re-encoded: %d new aux vars", grew)
	}
	if !b.Solve() {
		t.Fatal("must be SAT")
	}
}

// randomExpr builds a random 8-bit expression of the given depth over x, y
// and constants.
func randomExpr(rng *rand.Rand, x, y *sym.Expr, depth int) *sym.Expr {
	if depth == 0 {
		switch rng.Intn(3) {
		case 0:
			return x
		case 1:
			return y
		default:
			return sym.Const(8, uint64(rng.Intn(256)))
		}
	}
	a, b := randomExpr(rng, x, y, depth-1), randomExpr(rng, x, y, depth-1)
	switch rng.Intn(7) {
	case 0:
		return sym.Add(a, b)
	case 1:
		return sym.Sub(a, b)
	case 2:
		return sym.And(a, b)
	case 3:
		return sym.Or(a, b)
	case 4:
		return sym.Xor(a, b)
	case 5:
		return sym.Ite(sym.Ult(a, b), a, b)
	default:
		return sym.Not(a)
	}
}

// TestQuickAgainstEval cross-validates the encoder against the interpreter
// on random expressions over every sym operator, at widths 1, 8, 32, 48 and
// 64: for random x, y the formula (expr == eval(expr)) with the variables
// pinned must be satisfiable, and (expr != eval(expr)) unsatisfiable. The
// engine trusts Eval to prove a branch arm feasible from a witness without
// a solve, so an operator on which the two disagree would let exploration
// enter an infeasible arm.
func TestQuickAgainstEval(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, w := range []int{1, 8, 32, 48, 64} {
		x, y := sym.Var("x", w), sym.Var("y", w)
		for i := 0; i < 40; i++ {
			var e *sym.Expr
			if i%2 == 0 {
				e = randomBVExpr(rng, x, y, 3)
			} else {
				e = randomBoolExpr(rng, x, y, 3)
			}
			σ := sym.Assignment{"x": rng.Uint64(), "y": rng.Uint64()}
			checkAgainstEval(t, e.String(), e, x, y, σ)
		}
	}

	// Shared subterms: 40 levels of Add(e, e) is a DAG of 41 nodes and a
	// tree of 2^41. Eval must visit each node once, and the encoder too.
	x := sym.Var("x", 64)
	e := x
	for i := 0; i < 40; i++ {
		e = sym.Add(e, e)
	}
	xv := uint64(0x123456789)
	σ := sym.Assignment{"x": xv, "y": xv}
	if got, want := sym.Eval(e, σ), xv<<40; got != want {
		t.Fatalf("Eval of 40 doublings = %#x, want %#x", got, want)
	}
	checkAgainstEval(t, "40 doublings of x", e, x, x, σ)
}

// checkAgainstEval pins x and y to σ and checks that e's encoding takes
// exactly the value sym.Eval gives it. desc names e in failures.
func checkAgainstEval(t *testing.T, desc string, e, x, y *sym.Expr, σ sym.Assignment) {
	t.Helper()
	pin := sym.LAnd(sym.EqConst(x, σ["x"]), sym.EqConst(y, σ["y"]))
	want := sym.Eval(e, σ)
	is, isNot := sym.EqConst, func(e *sym.Expr, v uint64) *sym.Expr { return sym.Ne(e, sym.Const(e.Width(), v)) }
	if e.IsBool() {
		is = func(e *sym.Expr, v uint64) *sym.Expr {
			if v == 1 {
				return e
			}
			return sym.LNot(e)
		}
		isNot = func(e *sym.Expr, v uint64) *sym.Expr { return is(e, 1-v) }
	}
	b := New()
	b.Assert(sym.LAnd(pin, is(e, want)))
	if !b.Solve() {
		t.Fatalf("%s with %v should evaluate to %#x", desc, σ, want)
	}
	b = New()
	b.Assert(sym.LAnd(pin, isNot(e, want)))
	if b.Solve() {
		t.Fatalf("%s with %v must not differ from %#x", desc, σ, want)
	}
}

// randomBVExpr builds a random bitvector expression of x's width over x, y
// and constants, drawing from every bitvector operator.
func randomBVExpr(rng *rand.Rand, x, y *sym.Expr, depth int) *sym.Expr {
	w := x.Width()
	if depth == 0 {
		switch rng.Intn(3) {
		case 0:
			return x
		case 1:
			return y
		default:
			return sym.Const(w, rng.Uint64())
		}
	}
	sub := func() *sym.Expr { return randomBVExpr(rng, x, y, depth-1) }
	switch rng.Intn(12) {
	case 0:
		return sym.Add(sub(), sub())
	case 1:
		return sym.Sub(sub(), sub())
	case 2:
		return sym.Mul(sub(), sub())
	case 3:
		return sym.And(sub(), sub())
	case 4:
		return sym.Or(sub(), sub())
	case 5:
		return sym.Xor(sub(), sub())
	case 6:
		return sym.Not(sub())
	case 7:
		return sym.Shl(sub(), rng.Intn(w+1))
	case 8:
		return sym.Lshr(sub(), rng.Intn(w+1))
	case 9:
		return sym.Ite(randomBoolExpr(rng, x, y, depth-1), sub(), sub())
	case 10:
		hi := rng.Intn(w)
		lo := rng.Intn(hi + 1)
		return sym.ZExt(sym.Extract(sub(), hi, lo), w)
	default:
		if w == 1 {
			return sym.Extract(sub(), 0, 0)
		}
		k := 1 + rng.Intn(w-1) // low part width
		return sym.Concat(sym.Extract(sub(), w-1, k), sym.Extract(sub(), k-1, 0))
	}
}

// randomBoolExpr builds a random boolean expression over x and y, drawing
// from every boolean operator.
func randomBoolExpr(rng *rand.Rand, x, y *sym.Expr, depth int) *sym.Expr {
	if depth == 0 {
		return sym.Bool(rng.Intn(2) == 0)
	}
	bv := func() *sym.Expr { return randomBVExpr(rng, x, y, depth-1) }
	sub := func() *sym.Expr { return randomBoolExpr(rng, x, y, depth-1) }
	switch rng.Intn(6) {
	case 0:
		return sym.Eq(bv(), bv())
	case 1:
		return sym.Ult(bv(), bv())
	case 2:
		return sym.Ule(bv(), bv())
	case 3:
		return sym.LAnd(sub(), sub(), sym.Eq(bv(), bv()))
	case 4:
		return sym.LOr(sub(), sub(), sym.Ult(bv(), bv()))
	default:
		return sym.LNot(sub())
	}
}

// TestQuickComparisons property-tests Ult/Ule consistency with Go's <, <=.
func TestQuickComparisons(t *testing.T) {
	f := func(a, b uint16) bool {
		x := sym.Const(16, uint64(a))
		y := sym.Const(16, uint64(b))
		bl := New()
		bl.Assert(sym.Bool(true))
		ultOK := bl.SolveAssuming(sym.Ult(x, y)) == (a < b)
		uleOK := bl.SolveAssuming(sym.Ule(x, y)) == (a <= b)
		return ultOK && uleOK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestEnumerationAgainstBruteForce checks SAT/UNSAT agreement with explicit
// enumeration over a narrow variable.
func TestEnumerationAgainstBruteForce(t *testing.T) {
	x := sym.Var("x", 4)
	cases := []*sym.Expr{
		sym.Ult(sym.Add(x, sym.Const(4, 3)), sym.Const(4, 2)),
		sym.EqConst(sym.Mul(x, x), 9),
		sym.LAnd(sym.Ult(x, sym.Const(4, 12)), sym.Ugt(x, sym.Const(4, 10))),
		sym.LOr(sym.EqConst(x, 0), sym.EqConst(sym.Not(x), 0)),
		sym.EqConst(sym.Xor(x, sym.Lshr(x, 1)), 0xf),
	}
	for i, e := range cases {
		brute := false
		for v := uint64(0); v < 16; v++ {
			if sym.EvalBool(e, sym.Assignment{"x": v}) {
				brute = true
				break
			}
		}
		b := New()
		b.Assert(e)
		if got := b.Solve(); got != brute {
			t.Errorf("case %d (%v): solver=%v brute=%v", i, e, got, brute)
		}
	}
}

func BenchmarkBlastFlowModStyleConstraint(b *testing.B) {
	// A constraint shaped like a real path condition: several field
	// equalities and range checks over distinct 16-bit variables.
	port := sym.Var("port", 16)
	vlan := sym.Var("vlan", 16)
	buf := sym.Var("buffer", 32)
	e := sym.LAnd(
		sym.Ult(port, sym.Const(16, 0xff00)),
		sym.Ne(port, sym.Const(16, 0)),
		sym.Ule(vlan, sym.Const(16, 0x0fff)),
		sym.Ne(buf, sym.Const(32, 0xffffffff)),
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bl := New()
		bl.Assert(e)
		if !bl.Solve() {
			b.Fatal("must be SAT")
		}
	}
}
