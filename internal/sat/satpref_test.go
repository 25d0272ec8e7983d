package sat

import (
	"math/rand"
	"testing"
)

// maskCNF is a CNF over at most 32 variables with each clause stored as the
// bit masks of its positive and negative variables, so brute-force
// enumeration is a few word operations per clause.
type maskCNF struct {
	nVars int
	pos   []uint32
	neg   []uint32
}

func (f maskCNF) sat(m uint32) bool {
	for i := range f.pos {
		if m&f.pos[i] == 0 && ^m&f.neg[i] == 0 {
			return false
		}
	}
	return true
}

// randomMaskCNF draws up to 12 variables with a clause/variable ratio from
// 1 to past the 3-SAT threshold, so solves hit conflicts and backjumps
// below the preferred decisions.
func randomMaskCNF(rng *rand.Rand) (maskCNF, *Solver) {
	f := maskCNF{nVars: 2 + rng.Intn(11)}
	s := New()
	for v := 0; v < f.nVars; v++ {
		s.NewVar()
	}
	nClauses := f.nVars + rng.Intn(4*f.nVars+1)
	for i := 0; i < nClauses; i++ {
		var pos, neg uint32
		var lits []Lit
		for j := 0; j < 2+rng.Intn(3); j++ {
			v := rng.Intn(f.nVars)
			l := MkLit(v, rng.Intn(2) == 1)
			if l.Neg() {
				neg |= 1 << v
			} else {
				pos |= 1 << v
			}
			lits = append(lits, l)
		}
		f.pos, f.neg = append(f.pos, pos), append(f.neg, neg)
		s.AddClause(lits...)
	}
	return f, s
}

// randomLits returns n literals over distinct random variables with random
// polarity, in random order.
func randomLits(rng *rand.Rand, nVars, n int) []Lit {
	lits := make([]Lit, n)
	for i, v := range rng.Perm(nVars)[:n] {
		lits[i] = MkLit(v, rng.Intn(2) == 1)
	}
	return lits
}

func litHolds(m uint32, l Lit) bool { return (m>>l.Var()&1 == 1) != l.Neg() }

// lexMin is the brute-force reference: among the models of f that satisfy
// every assumption, keep those satisfying pref[0] if any do, then those
// satisfying pref[1], and so on. It returns the survivors' common value on
// the pref variables (as a mask over them) and whether any model existed.
func lexMin(f maskCNF, assumptions, pref []Lit) (uint32, bool) {
	var models []uint32
	for m := uint32(0); m < 1<<f.nVars; m++ {
		ok := f.sat(m)
		for _, a := range assumptions {
			ok = ok && litHolds(m, a)
		}
		if ok {
			models = append(models, m)
		}
	}
	if len(models) == 0 {
		return 0, false
	}
	for _, p := range pref {
		var keep []uint32
		for _, m := range models {
			if litHolds(m, p) {
				keep = append(keep, m)
			}
		}
		if len(keep) > 0 {
			models = keep
		}
	}
	return models[0] & prefMask(pref), true
}

func prefMask(pref []Lit) uint32 {
	var mask uint32
	for _, p := range pref {
		mask |= 1 << p.Var()
	}
	return mask
}

// TestSolvePreferringIsLexMin: on random CNFs of at most 12 variables, a
// solver whose saved phases, activities and learnt clauses were warmed by an
// unrelated solve must answer SolvePreferring like brute force, and its
// model must equal the brute-force lexicographic minimum on the preferred
// literals (mixed polarity, random order) while satisfying every clause and
// assumption.
func TestSolvePreferringIsLexMin(t *testing.T) {
	rng := rand.New(rand.NewSource(20031))
	n := 12000
	if testing.Short() {
		n = 1000
	}
	satisfiable := 0
	for i := 0; i < n; i++ {
		f, s := randomMaskCNF(rng)
		warm := randomLits(rng, f.nVars, rng.Intn(3))
		s.SolvePreferring(warm, randomLits(rng, f.nVars, rng.Intn(f.nVars+1)))

		assumptions := randomLits(rng, f.nVars, rng.Intn(3))
		pref := randomLits(rng, f.nVars, 1+rng.Intn(f.nVars))
		want, wantOK := lexMin(f, assumptions, pref)
		if !s.Okay() {
			if wantOK {
				t.Fatalf("instance %d: solver derived unsat, brute force found a model", i)
			}
			continue
		}
		got := s.SolvePreferring(assumptions, pref)
		if got != wantOK {
			t.Fatalf("instance %d: SolvePreferring=%v, brute force=%v (asm %v pref %v)", i, got, wantOK, assumptions, pref)
		}
		if !got {
			continue
		}
		satisfiable++
		var m uint32
		for v := 0; v < f.nVars; v++ {
			if s.Value(v) {
				m |= 1 << v
			}
		}
		if !f.sat(m) {
			t.Fatalf("instance %d: model %b violates a clause", i, m)
		}
		for _, a := range assumptions {
			if !litHolds(m, a) {
				t.Fatalf("instance %d: model %b violates assumption %v", i, m, a)
			}
		}
		if m&prefMask(pref) != want {
			t.Fatalf("instance %d: model on pref %b, lexicographic minimum %b (asm %v pref %v)",
				i, m&prefMask(pref), want, assumptions, pref)
		}
	}
	if satisfiable < n/4 {
		t.Fatalf("only %d of %d instances satisfiable: the generator no longer exercises the model", satisfiable, n)
	}
	t.Logf("%d of %d instances satisfiable", satisfiable, n)
}
