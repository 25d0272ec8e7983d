package bitblast

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/soft-testing/soft/internal/sat"
	"github.com/soft-testing/soft/internal/sym"
)

// canonicalByProbes is the reference the ordered solve must match: decide
// the formula under assumptions, then fix vars' bits one at a time, in name
// order and MSB first, to 0 whenever a solve with the bits fixed so far
// still succeeds. The solver's last model always satisfies every fixed
// literal, so a bit it already reads as 0 needs no probe and a failed probe
// leaves that model in place.
func canonicalByProbes(s *sat.Solver, assumptions []sat.Lit, vars map[string][]sat.Lit) (sym.Assignment, bool) {
	if !s.Solve(assumptions...) {
		return nil, false
	}
	names := make([]string, 0, len(vars))
	for n := range vars {
		names = append(names, n)
	}
	sort.Strings(names)
	fixed := append([]sat.Lit(nil), assumptions...)
	for _, n := range names {
		bits := vars[n]
		for i := len(bits) - 1; i >= 0; i-- {
			l := bits[i]
			fixed = append(fixed, l.Not())
			if s.Value(l.Var()) != l.Neg() && !s.Solve(fixed...) {
				fixed[len(fixed)-1] = l
			}
		}
	}
	return modelOf(s, vars), true
}

// CanonicalByProbes is the probe-loop canonical model of the asserted
// constraints.
func (b *Blaster) CanonicalByProbes() (sym.Assignment, bool) {
	return canonicalByProbes(b.S, nil, b.vars)
}

// CanonicalByProbes is the probe-loop canonical model of the current path.
func (s *Session) CanonicalByProbes() (sym.Assignment, bool) {
	return canonicalByProbes(s.b.S, s.stack, s.pathVars)
}

// TestCanonicalModelMatchesProbes: on random constraints over the
// expressions TestQuickAgainstEval draws, Blaster.CanonicalModel on a
// fresh blaster and Session.CanonicalModel on a session shared by 60
// consecutive queries must both equal the probe loop, satisfiable or not.
func TestCanonicalModelMatchesProbes(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	x, y := sym.Var("x", 8), sym.Var("y", 8)
	var sess *Session
	var nSat, nUnsat int
	for i := 0; i < 300; i++ {
		if i%60 == 0 {
			sess = NewSession()
		}
		e1, e2 := randomExpr(rng, x, y, 1+rng.Intn(3)), randomExpr(rng, x, y, 1+rng.Intn(3))
		var cond *sym.Expr
		switch rng.Intn(4) {
		case 0:
			cond = sym.Ult(e1, e2)
		case 1:
			cond = sym.Eq(e1, e2)
		case 2:
			cond = sym.EqConst(sym.And(e1, sym.Const(8, uint64(rng.Intn(256)))), uint64(rng.Intn(256)))
		default:
			cond = sym.LAnd(sym.Ugt(e1, sym.Const(8, uint64(rng.Intn(256)))), sym.Ne(e2, e1))
		}

		want, wantOK := func() (sym.Assignment, bool) {
			b := New()
			b.Assert(cond)
			return b.CanonicalByProbes()
		}()
		if wantOK {
			nSat++
			if !sym.EvalBool(cond, want) {
				t.Fatalf("query %d: probe model %v does not satisfy %v", i, want, cond)
			}
		} else {
			nUnsat++
		}

		b := New()
		b.Assert(cond)
		if got := b.CanonicalModel(); (got != nil) != wantOK || (wantOK && !reflect.DeepEqual(got, want)) {
			t.Fatalf("query %d (%v): Blaster.CanonicalModel %v, probes %v (sat %v)", i, cond, got, want, wantOK)
		}

		sess.Reset()
		sess.Assert(cond)
		got, ok := sess.CanonicalModel()
		if ok != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d (%v): Session.CanonicalModel %v (sat %v), probes %v (sat %v)", i, cond, got, ok, want, wantOK)
		}
		if pm, pok := sess.CanonicalByProbes(); pok != wantOK || !reflect.DeepEqual(pm, want) {
			t.Fatalf("query %d: session probes %v, fresh probes %v", i, pm, want)
		}
	}
	if nSat < 50 || nUnsat < 10 {
		t.Fatalf("generator drifted: %d sat, %d unsat queries", nSat, nUnsat)
	}
}
