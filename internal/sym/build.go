package sym

import "fmt"

// True and False are the boolean constants.
var (
	True  = mk(OpBool, 0, 1, 0, "")
	False = mk(OpBool, 0, 0, 0, "")
)

// Bool returns the boolean constant for v.
func Bool(v bool) *Expr {
	if v {
		return True
	}
	return False
}

// Const builds a bitvector constant of width w (1..64). The value is
// truncated to w bits.
func Const(w int, v uint64) *Expr {
	checkWidth(w)
	return mk(OpConst, uint8(w), v&mask(uint8(w)), 0, "")
}

// Var builds a bitvector variable of width w with the given name. Variable
// identity is by name: two Var calls with the same name and width denote the
// same input.
func Var(name string, w int) *Expr {
	checkWidth(w)
	if name == "" {
		panic("sym: empty variable name")
	}
	return mk(OpVar, uint8(w), 0, 0, name)
}

func checkWidth(w int) {
	if w < 1 || w > 64 {
		panic(fmt.Sprintf("sym: width %d out of range [1,64]", w))
	}
}

func checkBV(e *Expr, ctx string) {
	if e == nil || e.IsBool() {
		panic("sym: " + ctx + ": want bitvector operand")
	}
}

func checkSameWidth(a, b *Expr, ctx string) {
	checkBV(a, ctx)
	checkBV(b, ctx)
	if a.W != b.W {
		panic(fmt.Sprintf("sym: %s: width mismatch %d vs %d", ctx, a.W, b.W))
	}
}

func checkBool(e *Expr, ctx string) {
	if e == nil || !e.IsBool() {
		panic("sym: " + ctx + ": want boolean operand")
	}
}

// Extract returns bits [hi:lo] (inclusive) of e as a bitvector of width
// hi-lo+1.
func Extract(e *Expr, hi, lo int) *Expr {
	checkBV(e, "extract")
	if lo < 0 || hi < lo || hi >= int(e.W) {
		panic(fmt.Sprintf("sym: extract [%d:%d] of width %d", hi, lo, e.W))
	}
	w := uint8(hi - lo + 1)
	if w == e.W {
		return e
	}
	if v, ok := e.ConstVal(); ok {
		return Const(int(w), v>>uint(lo))
	}
	switch e.Op {
	case OpZExt:
		inner := e.Kids[0]
		if hi < int(inner.W) {
			return Extract(inner, hi, lo)
		}
		if lo >= int(inner.W) {
			return Const(int(w), 0)
		}
	case OpConcat:
		hiPart, loPart := e.Kids[0], e.Kids[1]
		lw := int(loPart.W)
		if hi < lw {
			return Extract(loPart, hi, lo)
		}
		if lo >= lw {
			return Extract(hiPart, hi-lw, lo-lw)
		}
	case OpExtract:
		return Extract(e.Kids[0], int(e.K)+hi, int(e.K)+lo)
	}
	return mk(OpExtract, w, uint64(lo), uint64(hi), "", e)
}

// Concat builds the concatenation of hi (most significant) and lo (least
// significant). The result width is hi.Width()+lo.Width() and must be <= 64.
func Concat(hi, lo *Expr) *Expr {
	checkBV(hi, "concat")
	checkBV(lo, "concat")
	w := int(hi.W) + int(lo.W)
	if w > 64 {
		panic(fmt.Sprintf("sym: concat width %d > 64", w))
	}
	hv, hok := hi.ConstVal()
	lv, lok := lo.ConstVal()
	if hok && lok {
		return Const(w, hv<<uint(lo.W)|lv)
	}
	// (concat (extract x [a+n:b]) (extract x [b-1:c])) => extract x [a+n:c]
	if hi.Op == OpExtract && lo.Op == OpExtract && hi.Kids[0] == lo.Kids[0] &&
		hi.K == lo.K2+1 {
		return Extract(hi.Kids[0], int(hi.K2), int(lo.K))
	}
	if hok && hv == 0 {
		return ZExt(lo, w)
	}
	return mk(OpConcat, uint8(w), 0, 0, "", hi, lo)
}

// ConcatAll concatenates parts from most significant to least significant.
func ConcatAll(parts ...*Expr) *Expr {
	if len(parts) == 0 {
		panic("sym: ConcatAll of nothing")
	}
	e := parts[0]
	for _, p := range parts[1:] {
		e = Concat(e, p)
	}
	return e
}

// ZExt zero-extends e to width w.
func ZExt(e *Expr, w int) *Expr {
	checkBV(e, "zext")
	checkWidth(w)
	if w < int(e.W) {
		panic(fmt.Sprintf("sym: zext to narrower width %d < %d", w, e.W))
	}
	if w == int(e.W) {
		return e
	}
	if v, ok := e.ConstVal(); ok {
		return Const(w, v)
	}
	if e.Op == OpZExt {
		return ZExt(e.Kids[0], w)
	}
	return mk(OpZExt, uint8(w), 0, 0, "", e)
}

func binFold(op Op, a, b *Expr, f func(x, y, m uint64) uint64) *Expr {
	av, aok := a.ConstVal()
	bv, bok := b.ConstVal()
	if aok && bok {
		return Const(int(a.W), f(av, bv, mask(a.W)))
	}
	return mk(op, a.W, 0, 0, "", a, b)
}

// Add returns a + b (mod 2^w).
func Add(a, b *Expr) *Expr {
	checkSameWidth(a, b, "add")
	if v, ok := a.ConstVal(); ok && v == 0 {
		return b
	}
	if v, ok := b.ConstVal(); ok && v == 0 {
		return a
	}
	return binFold(OpAdd, a, b, func(x, y, m uint64) uint64 { return (x + y) & m })
}

// Sub returns a - b (mod 2^w).
func Sub(a, b *Expr) *Expr {
	checkSameWidth(a, b, "sub")
	if v, ok := b.ConstVal(); ok && v == 0 {
		return a
	}
	if Equal(a, b) {
		return Const(int(a.W), 0)
	}
	return binFold(OpSub, a, b, func(x, y, m uint64) uint64 { return (x - y) & m })
}

// Mul returns a * b (mod 2^w).
func Mul(a, b *Expr) *Expr {
	checkSameWidth(a, b, "mul")
	if v, ok := a.ConstVal(); ok {
		if v == 0 {
			return a
		}
		if v == 1 {
			return b
		}
	}
	if v, ok := b.ConstVal(); ok {
		if v == 0 {
			return b
		}
		if v == 1 {
			return a
		}
	}
	return binFold(OpMul, a, b, func(x, y, m uint64) uint64 { return (x * y) & m })
}

// And returns the bitwise conjunction of a and b.
func And(a, b *Expr) *Expr {
	checkSameWidth(a, b, "and")
	if v, ok := a.ConstVal(); ok {
		if v == 0 {
			return a
		}
		if v == mask(a.W) {
			return b
		}
	}
	if v, ok := b.ConstVal(); ok {
		if v == 0 {
			return b
		}
		if v == mask(b.W) {
			return a
		}
	}
	if Equal(a, b) {
		return a
	}
	return binFold(OpAnd, a, b, func(x, y, m uint64) uint64 { return x & y & m })
}

// Or returns the bitwise disjunction of a and b.
func Or(a, b *Expr) *Expr {
	checkSameWidth(a, b, "or")
	if v, ok := a.ConstVal(); ok {
		if v == 0 {
			return b
		}
		if v == mask(a.W) {
			return a
		}
	}
	if v, ok := b.ConstVal(); ok {
		if v == 0 {
			return a
		}
		if v == mask(b.W) {
			return b
		}
	}
	if Equal(a, b) {
		return a
	}
	return binFold(OpOr, a, b, func(x, y, m uint64) uint64 { return (x | y) & m })
}

// Xor returns the bitwise exclusive-or of a and b.
func Xor(a, b *Expr) *Expr {
	checkSameWidth(a, b, "xor")
	if v, ok := a.ConstVal(); ok && v == 0 {
		return b
	}
	if v, ok := b.ConstVal(); ok && v == 0 {
		return a
	}
	if Equal(a, b) {
		return Const(int(a.W), 0)
	}
	return binFold(OpXor, a, b, func(x, y, m uint64) uint64 { return (x ^ y) & m })
}

// Not returns the bitwise complement of e.
func Not(e *Expr) *Expr {
	checkBV(e, "not")
	if v, ok := e.ConstVal(); ok {
		return Const(int(e.W), ^v)
	}
	if e.Op == OpNot {
		return e.Kids[0]
	}
	return mk(OpNot, e.W, 0, 0, "", e)
}

// Shl returns e logically shifted left by the constant amount sh.
func Shl(e *Expr, sh int) *Expr {
	checkBV(e, "shl")
	if sh < 0 {
		panic("sym: negative shift")
	}
	if sh == 0 {
		return e
	}
	if sh >= int(e.W) {
		return Const(int(e.W), 0)
	}
	if v, ok := e.ConstVal(); ok {
		return Const(int(e.W), v<<uint(sh))
	}
	return mk(OpShl, e.W, uint64(sh), 0, "", e)
}

// Lshr returns e logically shifted right by the constant amount sh.
func Lshr(e *Expr, sh int) *Expr {
	checkBV(e, "lshr")
	if sh < 0 {
		panic("sym: negative shift")
	}
	if sh == 0 {
		return e
	}
	if sh >= int(e.W) {
		return Const(int(e.W), 0)
	}
	if v, ok := e.ConstVal(); ok {
		return Const(int(e.W), v>>uint(sh))
	}
	return mk(OpLshr, e.W, uint64(sh), 0, "", e)
}

// Ite returns cond ? a : b for bitvector arms of equal width.
func Ite(cond, a, b *Expr) *Expr {
	checkBool(cond, "ite")
	checkSameWidth(a, b, "ite")
	if cond.IsTrue() {
		return a
	}
	if cond.IsFalse() {
		return b
	}
	if Equal(a, b) {
		return a
	}
	return mk(OpIte, a.W, 0, 0, "", cond, a, b)
}

// Eq returns the boolean a == b.
func Eq(a, b *Expr) *Expr {
	checkSameWidth(a, b, "eq")
	av, aok := a.ConstVal()
	bv, bok := b.ConstVal()
	if aok && bok {
		return Bool(av == bv)
	}
	if Equal(a, b) {
		return True
	}
	// Normalize constant to the right.
	if aok {
		a, b = b, a
	}
	// (eq (zext x) c) with c out of x's range is trivially false.
	if a.Op == OpZExt {
		if cv, ok := b.ConstVal(); ok {
			if cv > mask(a.Kids[0].W) {
				return False
			}
			return Eq(a.Kids[0], Const(int(a.Kids[0].W), cv))
		}
	}
	return mk(OpEq, 0, 0, 0, "", a, b)
}

// Ne returns the boolean a != b.
func Ne(a, b *Expr) *Expr { return LNot(Eq(a, b)) }

// EqConst returns the boolean a == v, with v as a constant of a's width.
func EqConst(a *Expr, v uint64) *Expr { return Eq(a, Const(int(a.W), v)) }

// Ult returns the boolean a <u b (unsigned).
func Ult(a, b *Expr) *Expr {
	checkSameWidth(a, b, "ult")
	av, aok := a.ConstVal()
	bv, bok := b.ConstVal()
	if aok && bok {
		return Bool(av < bv)
	}
	if bok && bv == 0 {
		return False // nothing is < 0
	}
	if aok && av == mask(a.W) {
		return False // max is < nothing
	}
	if Equal(a, b) {
		return False
	}
	return mk(OpUlt, 0, 0, 0, "", a, b)
}

// Ule returns the boolean a <=u b (unsigned).
func Ule(a, b *Expr) *Expr {
	checkSameWidth(a, b, "ule")
	av, aok := a.ConstVal()
	bv, bok := b.ConstVal()
	if aok && bok {
		return Bool(av <= bv)
	}
	if aok && av == 0 {
		return True
	}
	if bok && bv == mask(b.W) {
		return True
	}
	if Equal(a, b) {
		return True
	}
	return mk(OpUle, 0, 0, 0, "", a, b)
}

// Ugt returns the boolean a >u b.
func Ugt(a, b *Expr) *Expr { return Ult(b, a) }

// Uge returns the boolean a >=u b.
func Uge(a, b *Expr) *Expr { return Ule(b, a) }

// LAnd returns the conjunction of boolean expressions, flattening nested
// conjunctions and dropping duplicates and true constants. Kids keep the
// order of their first occurrence.
func LAnd(xs ...*Expr) *Expr { return junction(OpLAnd, "land", xs) }

// LOr returns the disjunction of boolean expressions, flattening nested
// disjunctions and dropping duplicates and false constants.
func LOr(xs ...*Expr) *Expr { return junction(OpLOr, "lor", xs) }

// junction builds LAnd (op OpLAnd) or LOr (op OpLOr) of xs. unit is the
// constant the connective drops (true for LAnd) and absorb the one that
// decides the whole result.
func junction(op Op, ctx string, xs []*Expr) *Expr {
	unit, absorb := True, False
	if op == OpLOr {
		unit, absorb = False, True
	}
	var buf [16]*Expr
	kids := buf[:0]
	var idx map[uint64][]*Expr
	for _, x := range xs {
		checkBool(x, ctx)
		switch x.Op {
		case OpBool:
			if x.K == absorb.K {
				return absorb
			}
		case op:
			// A node of the same connective holds flattened, deduplicated,
			// non-constant kids already (it was built here).
			for _, k := range x.Kids {
				kids, idx = addKid(kids, idx, k)
			}
		default:
			kids, idx = addKid(kids, idx, x)
		}
	}
	switch len(kids) {
	case 0:
		return unit
	case 1:
		return kids[0]
	}
	return mk(op, 0, 0, 0, "", kids...)
}

// addKidScan is how many kids addKid scans linearly before it indexes
// them by hash, so wide disjunctions (a group's path conditions) stay
// linear while the common short connective allocates nothing.
const addKidScan = 32

// addKid appends e to kids unless a structurally equal kid is there
// already (pointer, then hash, then Equal). idx is nil until kids reaches
// addKidScan.
func addKid(kids []*Expr, idx map[uint64][]*Expr, e *Expr) ([]*Expr, map[uint64][]*Expr) {
	if idx == nil {
		for _, k := range kids {
			if k == e || k.hash == e.hash && Equal(k, e) {
				return kids, nil
			}
		}
		kids = append(kids, e)
		if len(kids) == addKidScan {
			idx = make(map[uint64][]*Expr, 2*addKidScan)
			for _, k := range kids {
				idx[k.hash] = append(idx[k.hash], k)
			}
		}
		return kids, idx
	}
	for _, k := range idx[e.hash] {
		if k == e || Equal(k, e) {
			return kids, idx
		}
	}
	idx[e.hash] = append(idx[e.hash], e)
	return append(kids, e), idx
}

// LNot returns the boolean negation of e.
func LNot(e *Expr) *Expr {
	checkBool(e, "lnot")
	if e.IsTrue() {
		return False
	}
	if e.IsFalse() {
		return True
	}
	if e.Op == OpLNot {
		return e.Kids[0]
	}
	return mk(OpLNot, 0, 0, 0, "", e)
}

// Implies returns the boolean a => b.
func Implies(a, b *Expr) *Expr { return LOr(LNot(a), b) }
