package solver

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/soft-testing/soft/internal/bitblast"
	"github.com/soft-testing/soft/internal/sym"
)

// sessionVars are the variables the random queries draw from. Each name
// keeps one width everywhere, as it does within one crosscheck.
var sessionVars = []*sym.Expr{
	sym.Var("a", 8),
	sym.Var("b", 16),
	sym.Var("c", 4),
	sym.Var("d", 12),
}

// randConjunct builds a random boolean constraint over vars. Masked
// equalities leave the high bits free, so a sat query's canonical model
// depends on the minimization, not on the raw model of the last solve.
func randConjunct(r *rand.Rand, vars []*sym.Expr) *sym.Expr {
	x := vars[r.Intn(len(vars))]
	w := x.Width()
	k := func() *sym.Expr { return sym.Const(w, r.Uint64()) }
	switch r.Intn(7) {
	case 0:
		return sym.EqConst(sym.And(x, sym.Const(w, 0x3)), r.Uint64()&0x3)
	case 1:
		return sym.Ult(x, k())
	case 2:
		return sym.Ugt(sym.Add(x, k()), k())
	case 3:
		return sym.LNot(sym.EqConst(x, r.Uint64()&0x7))
	case 4:
		y := vars[r.Intn(len(vars))]
		return sym.Ule(sym.ZExt(sym.Extract(y, 1, 0), w), x)
	case 5:
		return sym.EqConst(x, r.Uint64()&0xf)
	default:
		return sym.LOr(
			sym.EqConst(sym.Extract(x, 1, 0), r.Uint64()&0x3),
			sym.Uge(x, k()),
		)
	}
}

// TestSessionMatchesFreshCheck runs one session across a seeded random
// query sequence and demands, query by query, the result and canonical
// model a fresh Check on a new solver returns. Queries reuse conjuncts of
// earlier ones (the activation cache must serve them), and each draws from
// a random subset of the variables, so later queries often mention fewer
// variables than the session has encoded: the model must cover exactly the
// query's own.
func TestSessionMatchesFreshCheck(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		s := New()
		sess := bitblast.NewSession()
		var pool []*sym.Expr
		var sat, unsat, partial int
		for q := 0; q < 120; q++ {
			vars := sessionVars[:1+r.Intn(len(sessionVars))]
			if r.Intn(2) == 0 {
				vars = sessionVars[r.Intn(len(sessionVars)):]
			}
			n := 1 + r.Intn(4)
			cs := make([]*sym.Expr, 0, n)
			for len(cs) < n {
				if len(pool) > 0 && r.Intn(2) == 0 {
					cs = append(cs, pool[r.Intn(len(pool))])
					continue
				}
				c := randConjunct(r, vars)
				pool = append(pool, c)
				cs = append(cs, c)
			}

			wantRes, wantModel := New().Check(cs...)
			gotRes, gotModel := s.CheckIn(sess, cs...)
			if gotRes != wantRes || !reflect.DeepEqual(gotModel, wantModel) {
				t.Fatalf("seed %d query %d %v: session gave %v %v, fresh Check %v %v",
					seed, q, cs, gotRes, gotModel, wantRes, wantModel)
			}
			if wantRes == Sat {
				sat++
				if len(wantModel) < len(sessionVars) {
					partial++
				}
			} else {
				unsat++
			}
		}
		if sat == 0 || unsat == 0 || partial == 0 {
			t.Fatalf("seed %d: degenerate sequence: %d sat (%d on a variable subset), %d unsat",
				seed, sat, partial, unsat)
		}
		if st := s.Stats(); st.ConstraintsReused == 0 || st.AssumptionSolves != st.Queries-st.FastPathConst {
			t.Fatalf("seed %d: session counters %+v", seed, st)
		}
	}
}

// TestCacheKeyIsStructural: two structurally equal queries built
// independently get the same answer and canonical model. The solver keeps
// no query cache, so each is its own solve and no hit is counted.
func TestCacheKeyIsStructural(t *testing.T) {
	build := func() *sym.Expr {
		x := sym.Var("x", 16)
		return sym.LAnd(sym.Ult(x, sym.Const(16, 300)), sym.EqConst(sym.And(x, sym.Const(16, 0xf)), 7))
	}
	s := New()
	r1, m1 := s.Check(build())
	r2, m2 := s.Check(build())
	if r1 != Sat || r2 != Sat || !reflect.DeepEqual(m1, m2) {
		t.Fatalf("answers differ: %v %v / %v %v", r1, m1, r2, m2)
	}
	if st := s.Stats(); st.AssumptionSolves != 2 || st.CacheHits != 0 {
		t.Fatalf("AssumptionSolves = %d, CacheHits = %d; want 2 and 0", st.AssumptionSolves, st.CacheHits)
	}
}
