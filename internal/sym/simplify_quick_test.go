package sym

import (
	"math/rand"
	"testing"
)

// TestQuickSimplifyPreservesSemantics checks the constructors' folding
// over mixed-width arithmetic: a and b are 16 bits wide, c is 8, and
// Ite(Ult(…)) nodes fold when their condition becomes constant. For each
// subset of the variables substituted, eval(Substitute(e, σ_part), σ) must
// equal eval(e, σ).
func TestQuickSimplifyPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vars := []*Expr{Var("a", 16), Var("b", 16), Var("c", 8)}
	var build func(d int, w int) *Expr
	build = func(d, w int) *Expr {
		if d == 0 {
			switch rng.Intn(3) {
			case 0:
				if w == 16 {
					return vars[rng.Intn(2)]
				}
				return vars[2]
			default:
				return Const(w, rng.Uint64())
			}
		}
		switch rng.Intn(10) {
		case 0:
			return Add(build(d-1, w), build(d-1, w))
		case 1:
			return Sub(build(d-1, w), build(d-1, w))
		case 2:
			return Mul(build(d-1, w), build(d-1, w))
		case 3:
			return And(build(d-1, w), build(d-1, w))
		case 4:
			return Or(build(d-1, w), build(d-1, w))
		case 5:
			return Xor(build(d-1, w), build(d-1, w))
		case 6:
			return Not(build(d-1, w))
		case 7:
			return Ite(Ult(build(d-1, w), build(d-1, w)), build(d-1, w), build(d-1, w))
		case 8:
			return Shl(build(d-1, w), rng.Intn(w))
		default:
			return Lshr(build(d-1, w), rng.Intn(w))
		}
	}
	names := []string{"a", "b", "c"}
	for i := 0; i < 200; i++ {
		w := 16
		if rng.Intn(2) == 0 {
			w = 8
		}
		e := build(3, w)
		σ := Assignment{
			"a": rng.Uint64(), "b": rng.Uint64(), "c": rng.Uint64(),
		}
		want := Eval(e, σ)
		for keep := 0; keep < 1<<len(names); keep++ {
			part := Assignment{}
			for j, name := range names {
				if keep&(1<<j) != 0 {
					part[name] = σ[name]
				}
			}
			if got := Eval(Substitute(e, part), σ); got != want {
				t.Fatalf("iteration %d, substituted %v: folding changed semantics of %v: %d != %d",
					i, part, e, got, want)
			}
		}
	}
}

// TestQuickBooleanSimplify checks the boolean connectives' folding: with a
// substituted and b left symbolic, comparisons of a with a constant fold
// to true or false, and the LAnd, LOr and LNot above them must fold to an
// expression of the same value.
func TestQuickBooleanSimplify(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a, b := Var("a", 8), Var("b", 8)
	var build func(d int) *Expr
	build = func(d int) *Expr {
		if d == 0 {
			switch rng.Intn(4) {
			case 0:
				return Eq(a, b)
			case 1:
				return Ult(a, b)
			case 2:
				return Ule(a, Const(8, rng.Uint64()&0xff))
			default:
				return Bool(rng.Intn(2) == 0)
			}
		}
		switch rng.Intn(3) {
		case 0:
			return LAnd(build(d-1), build(d-1))
		case 1:
			return LOr(build(d-1), build(d-1))
		default:
			return LNot(build(d - 1))
		}
	}
	for i := 0; i < 200; i++ {
		e := build(4)
		σ := Assignment{"a": rng.Uint64(), "b": rng.Uint64()}
		part := Assignment{"a": σ["a"]}
		if got, want := EvalBool(Substitute(e, part), σ), EvalBool(e, σ); got != want {
			t.Fatalf("iteration %d: folding changed %v", i, e)
		}
	}
}

// TestQuickStringParseRoundTrip: Parse(String(e)) is structurally equal
// to e (the codec invariant the results file format relies on).
func TestQuickStringParseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	x := Var("x", 32)
	var build func(d int) *Expr
	build = func(d int) *Expr {
		if d == 0 {
			if rng.Intn(2) == 0 {
				return x
			}
			return Const(32, rng.Uint64())
		}
		switch rng.Intn(6) {
		case 0:
			return Add(build(d-1), build(d-1))
		case 1:
			return ZExt(Extract(build(d-1), 15, 0), 32)
		case 2:
			return ZExt(Extract(build(d-1), 7, 0), 32)
		case 3:
			return Ite(Eq(build(d-1), build(d-1)), build(d-1), build(d-1))
		case 4:
			return Xor(build(d-1), build(d-1))
		default:
			return Not(build(d - 1))
		}
	}
	for i := 0; i < 100; i++ {
		e := build(3)
		got, err := Parse(e.String())
		if err != nil {
			t.Fatalf("iteration %d: parse %q: %v", i, e.String(), err)
		}
		if !Equal(got, e) {
			t.Fatalf("iteration %d: round trip changed %v to %v", i, e, got)
		}
	}
}
