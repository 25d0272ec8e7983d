package sym

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConstFolding(t *testing.T) {
	cases := []struct {
		e    *Expr
		want uint64
	}{
		{Add(Const(8, 250), Const(8, 10)), 4}, // wraps mod 2^8
		{Sub(Const(16, 3), Const(16, 5)), 0xfffe},
		{Mul(Const(8, 16), Const(8, 16)), 0},
		{And(Const(8, 0xf0), Const(8, 0x3c)), 0x30},
		{Or(Const(8, 0xf0), Const(8, 0x0c)), 0xfc},
		{Xor(Const(8, 0xff), Const(8, 0x0f)), 0xf0},
		{Not(Const(4, 0b1010)), 0b0101},
		{Shl(Const(8, 1), 3), 8},
		{Lshr(Const(8, 0x80), 7), 1},
		{Extract(Const(16, 0xabcd), 15, 8), 0xab},
		{Concat(Const(8, 0xab), Const(8, 0xcd)), 0xabcd},
		{ZExt(Const(8, 0xff), 16), 0xff},
		{Ite(True, Const(8, 1), Const(8, 2)), 1},
		{Ite(False, Const(8, 1), Const(8, 2)), 2},
	}
	for i, c := range cases {
		if !c.e.IsConst() {
			t.Errorf("case %d: %v not folded to constant", i, c.e)
			continue
		}
		if got, _ := c.e.ConstVal(); got != c.want {
			t.Errorf("case %d: got %#x want %#x", i, got, c.want)
		}
	}
}

func TestBoolFolding(t *testing.T) {
	x := Var("x", 8)
	cases := []struct {
		e    *Expr
		want *Expr
	}{
		{Eq(Const(8, 3), Const(8, 3)), True},
		{Eq(Const(8, 3), Const(8, 4)), False},
		{Eq(x, x), True},
		{Ult(x, Const(8, 0)), False},
		{Ule(Const(8, 0), x), True},
		{Ule(x, Const(8, 255)), True},
		{LAnd(True, True), True},
		{LAnd(True, False), False},
		{LOr(False, False), False},
		{LOr(True, False), True},
		{LNot(LNot(EqConst(x, 1))), EqConst(x, 1)},
		{LAnd(EqConst(x, 1), EqConst(x, 1)), EqConst(x, 1)},
	}
	for i, c := range cases {
		if !Equal(c.e, c.want) {
			t.Errorf("case %d: got %v want %v", i, c.e, c.want)
		}
	}
}

func TestIdentitySimplifications(t *testing.T) {
	x := Var("x", 16)
	zero := Const(16, 0)
	ones := Const(16, 0xffff)
	cases := []struct {
		got, want *Expr
	}{
		{Add(x, zero), x},
		{Add(zero, x), x},
		{Sub(x, zero), x},
		{Sub(x, x), zero},
		{Mul(x, Const(16, 1)), x},
		{Mul(x, zero), zero},
		{And(x, ones), x},
		{And(x, zero), zero},
		{Or(x, zero), x},
		{Or(x, ones), ones},
		{Xor(x, zero), x},
		{Xor(x, x), zero},
		{Not(Not(x)), x},
		{ZExt(x, 16), x},
		{Extract(x, 15, 0), x},
		{Ite(EqConst(x, 1), x, x), x},
	}
	for i, c := range cases {
		if !Equal(c.got, c.want) {
			t.Errorf("case %d: got %v want %v", i, c.got, c.want)
		}
	}
}

func TestExtractThroughConcatAndZExt(t *testing.T) {
	hi := Var("h", 8)
	lo := Var("l", 8)
	cc := Concat(hi, lo)
	if !Equal(Extract(cc, 7, 0), lo) {
		t.Errorf("low extract of concat: got %v", Extract(cc, 7, 0))
	}
	if !Equal(Extract(cc, 15, 8), hi) {
		t.Errorf("high extract of concat: got %v", Extract(cc, 15, 8))
	}
	z := ZExt(Var("x", 8), 32)
	if !Equal(Extract(z, 7, 0), Var("x", 8)) {
		t.Errorf("extract of zext low: got %v", Extract(z, 7, 0))
	}
	if got := Extract(z, 31, 8); !got.IsConst() {
		t.Errorf("extract of zext high bits should be 0, got %v", got)
	}
	// Re-concat of adjacent extracts collapses.
	x := Var("x", 32)
	re := Concat(Extract(x, 23, 16), Extract(x, 15, 8))
	if !Equal(re, Extract(x, 23, 8)) {
		t.Errorf("adjacent extract concat: got %v", re)
	}
}

func TestEqZExtRange(t *testing.T) {
	x := Var("x", 8)
	if got := Eq(ZExt(x, 16), Const(16, 300)); !got.IsFalse() {
		t.Errorf("zext eq out-of-range: got %v", got)
	}
	want := EqConst(x, 77)
	if got := Eq(ZExt(x, 16), Const(16, 77)); !Equal(got, want) {
		t.Errorf("zext eq in-range: got %v want %v", got, want)
	}
}

func TestVars(t *testing.T) {
	e := LAnd(EqConst(Var("a", 8), 1), Ult(Var("b", 16), ZExt(Var("a", 8), 16)))
	vs := Vars(e, nil)
	if len(vs) != 2 || vs["a"] == nil || vs["b"] == nil {
		t.Fatalf("vars = %v", vs)
	}
	if vs["a"].Width() != 8 || vs["b"].Width() != 16 {
		t.Fatalf("widths wrong: %v", vs)
	}
}

func TestSizeMetric(t *testing.T) {
	x := Var("x", 8)
	if x.Size() != 0 {
		t.Errorf("var size = %d", x.Size())
	}
	e := LAnd(EqConst(x, 1), Ult(x, Const(8, 9)))
	// land + eq + ult = 3 operator nodes.
	if e.Size() != 3 {
		t.Errorf("size = %d want 3", e.Size())
	}
}

func TestEvalBasics(t *testing.T) {
	x, y := Var("x", 8), Var("y", 8)
	σ := Assignment{"x": 200, "y": 100}
	cases := []struct {
		e    *Expr
		want uint64
	}{
		{Add(x, y), 44},
		{Sub(x, y), 100},
		{Mul(x, y), (200 * 100) % 256},
		{Concat(x, y), 200<<8 | 100},
		{Extract(x, 7, 4), 200 >> 4},
		{Ite(Ult(x, y), x, y), 100},
		{Eq(x, y), 0},
		{Ule(y, x), 1},
		{LNot(Eq(x, y)), 1},
	}
	for i, c := range cases {
		if got := Eval(c.e, σ); got != c.want {
			t.Errorf("case %d (%v): got %d want %d", i, c.e, got, c.want)
		}
	}
}

// randExpr builds a random well-formed expression over variables a,b,c of
// width w, with the given depth budget. kind 0 => bitvector, 1 => boolean.
func randExpr(r *rand.Rand, depth, w int, wantBool bool) *Expr {
	if wantBool {
		if depth <= 0 {
			return Bool(r.Intn(2) == 0)
		}
		switch r.Intn(6) {
		case 0:
			return Eq(randExpr(r, depth-1, w, false), randExpr(r, depth-1, w, false))
		case 1:
			return Ult(randExpr(r, depth-1, w, false), randExpr(r, depth-1, w, false))
		case 2:
			return Ule(randExpr(r, depth-1, w, false), randExpr(r, depth-1, w, false))
		case 3:
			return LAnd(randExpr(r, depth-1, w, true), randExpr(r, depth-1, w, true))
		case 4:
			return LOr(randExpr(r, depth-1, w, true), randExpr(r, depth-1, w, true))
		default:
			return LNot(randExpr(r, depth-1, w, true))
		}
	}
	if depth <= 0 {
		switch r.Intn(3) {
		case 0:
			return Const(w, r.Uint64())
		default:
			return Var(string(rune('a'+r.Intn(3))), w)
		}
	}
	switch r.Intn(12) {
	case 0:
		return Add(randExpr(r, depth-1, w, false), randExpr(r, depth-1, w, false))
	case 1:
		return Sub(randExpr(r, depth-1, w, false), randExpr(r, depth-1, w, false))
	case 2:
		return Mul(randExpr(r, depth-1, w, false), randExpr(r, depth-1, w, false))
	case 3:
		return And(randExpr(r, depth-1, w, false), randExpr(r, depth-1, w, false))
	case 4:
		return Or(randExpr(r, depth-1, w, false), randExpr(r, depth-1, w, false))
	case 5:
		return Xor(randExpr(r, depth-1, w, false), randExpr(r, depth-1, w, false))
	case 6:
		return Not(randExpr(r, depth-1, w, false))
	case 7:
		return Shl(randExpr(r, depth-1, w, false), r.Intn(w))
	case 8:
		return Ite(randExpr(r, depth-1, w, true),
			randExpr(r, depth-1, w, false), randExpr(r, depth-1, w, false))
	case 9:
		return Lshr(randExpr(r, depth-1, w, false), r.Intn(w))
	case 10:
		hi := r.Intn(w)
		lo := r.Intn(hi + 1)
		return ZExt(Extract(randExpr(r, depth-1, w, false), hi, lo), w)
	default:
		hw := 1 + r.Intn(w-1)
		return Concat(randExpr(r, 0, hw, false), randExpr(r, 0, w-hw, false))
	}
}

// Property: simplification preserves evaluation. The smart constructors
// are the simplifier, so substituting constants for some variables folds
// through them; the result must keep its value under any completion of
// the substitution. Partial constants reach every constructor's folding
// rules from every side.
func TestQuickSimplifyPreservesEval(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func(av, bv, cv uint64, keep uint8, seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		w := []int{8, 16, 64}[rr.Intn(3)]
		e := randExpr(rr, 4, w, rr.Intn(2) == 0)
		full := Assignment{"a": av, "b": bv, "c": cv}
		part := Assignment{}
		for i, name := range []string{"a", "b", "c"} {
			if keep&(1<<i) != 0 {
				part[name] = full[name]
			}
		}
		return Eval(Substitute(e, part), full) == Eval(e, full)
	}
	cfg := &quick.Config{MaxCount: 500, Rand: r}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: Parse(String(e)) is structurally equal to e and evaluates
// identically.
func TestQuickParseRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	f := func(av, bv, cv uint64, seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		e := randExpr(rr, 4, 16, rr.Intn(2) == 0)
		back, err := Parse(e.String())
		if err != nil {
			return false
		}
		σ := Assignment{"a": av, "b": bv, "c": cv}
		return Eval(e, σ) == Eval(back, σ)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: r}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: Substitute with a full assignment yields the constant Eval yields.
func TestQuickSubstituteFull(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	f := func(av, bv, cv uint64, seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		e := randExpr(rr, 4, 8, false)
		σ := Assignment{"a": av, "b": bv, "c": cv}
		s := Substitute(e, σ)
		v, ok := s.ConstVal()
		return ok && v == Eval(e, σ)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: r}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "(", ")", "(frob 1 2)", "(const 8)", "(const 99 1)",
		"(var 8)", "(eq (const 8 1) (const 16 1))", "(const 8 1) junk",
		"(extract 9 0 (const 8 1))", "(land (const 8 1))",
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestHashStability(t *testing.T) {
	a := LAnd(EqConst(Var("p", 16), 3), Ult(Var("p", 16), Const(16, 25)))
	b := LAnd(EqConst(Var("p", 16), 3), Ult(Var("p", 16), Const(16, 25)))
	if a.Hash() != b.Hash() || !Equal(a, b) {
		t.Fatal("structurally equal expressions must have equal hashes")
	}
}

func TestWidthPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("width0", func() { Const(0, 1) })
	mustPanic("width65", func() { Const(65, 1) })
	mustPanic("addWidth", func() { Add(Const(8, 1), Const(16, 1)) })
	mustPanic("extractRange", func() { Extract(Const(8, 1), 8, 0) })
	mustPanic("concat65", func() { Concat(Const(64, 1), Const(8, 1)) })
	mustPanic("iteNotBool", func() { Ite(Const(8, 1), Const(8, 1), Const(8, 2)) })
	mustPanic("landNotBool", func() { LAnd(Const(8, 1)) })
}

// Substitute returns e with every variable that σ assigns replaced by the
// corresponding constant, folding through the smart constructors. Variables
// not present in σ are left symbolic.
func Substitute(e *Expr, σ Assignment) *Expr {
	memo := make(map[*Expr]*Expr)
	var sub func(*Expr) *Expr
	sub = func(n *Expr) *Expr {
		if r, ok := memo[n]; ok {
			return r
		}
		var r *Expr
		switch n.Op {
		case OpConst, OpBool:
			r = n
		case OpVar:
			if v, ok := σ[n.Name]; ok {
				r = Const(int(n.W), v)
			} else {
				r = n
			}
		default:
			kids := make([]*Expr, len(n.Kids))
			changed := false
			for i, k := range n.Kids {
				kids[i] = sub(k)
				if kids[i] != k {
					changed = true
				}
			}
			if !changed {
				r = n
			} else {
				r = rebuild(n, kids)
			}
		}
		memo[n] = r
		return r
	}
	return sub(e)
}

// rebuild reconstructs a node of the same operator with new children,
// passing through the smart constructors for folding.
func rebuild(n *Expr, kids []*Expr) *Expr {
	switch n.Op {
	case OpExtract:
		return Extract(kids[0], int(n.K2), int(n.K))
	case OpConcat:
		return Concat(kids[0], kids[1])
	case OpZExt:
		return ZExt(kids[0], int(n.W))
	case OpAdd:
		return Add(kids[0], kids[1])
	case OpSub:
		return Sub(kids[0], kids[1])
	case OpMul:
		return Mul(kids[0], kids[1])
	case OpAnd:
		return And(kids[0], kids[1])
	case OpOr:
		return Or(kids[0], kids[1])
	case OpXor:
		return Xor(kids[0], kids[1])
	case OpNot:
		return Not(kids[0])
	case OpShl:
		return Shl(kids[0], int(n.K))
	case OpLshr:
		return Lshr(kids[0], int(n.K))
	case OpIte:
		return Ite(kids[0], kids[1], kids[2])
	case OpEq:
		return Eq(kids[0], kids[1])
	case OpUlt:
		return Ult(kids[0], kids[1])
	case OpUle:
		return Ule(kids[0], kids[1])
	case OpLAnd:
		return LAnd(kids...)
	case OpLOr:
		return LOr(kids...)
	case OpLNot:
		return LNot(kids[0])
	}
	panic(fmt.Sprintf("sym: rebuild of %v", n.Op))
}
