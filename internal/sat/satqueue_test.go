package sat

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// holdsAll reports whether m satisfies every literal of lits.
func holdsAll(m uint32, lits []Lit) bool {
	return !slices.ContainsFunc(lits, func(l Lit) bool { return !litHolds(m, l) })
}

// satisfiable reports whether some model of f satisfies every assumption.
func (f maskCNF) satisfiable(assumptions []Lit) bool {
	for m := uint32(0); m < 1<<f.nVars; m++ {
		if f.sat(m) && holdsAll(m, assumptions) {
			return true
		}
	}
	return false
}

// values returns s's model on its first n variables.
func values(s *Solver, n int) uint32 {
	var m uint32
	for v := 0; v < n; v++ {
		if s.Value(v) {
			m |= 1 << v
		}
	}
	return m
}

// randomClauses returns 4.5 random 3-clauses per variable over nVars
// variables, past the 3-SAT threshold. Clause k draws its variables from
// the first 3+k/3 only, so variables enter the clause stream gradually.
func randomClauses(rng *rand.Rand, nVars int) [][]Lit {
	cnf := make([][]Lit, 9*nVars/2)
	for k := range cnf {
		for j := 0; j < 3; j++ {
			cnf[k] = append(cnf[k], MkLit(rng.Intn(min(nVars, 3+k/3)), rng.Intn(2) == 1))
		}
	}
	return cnf
}

// tseitinK6 returns the Tseitin parity formula of the complete graph on 6
// vertices with an odd total charge, in random clause order over randomly
// numbered edge variables: unsat, and this solver needs about a thousand
// conflicts and several restarts to refute it from scratch, although it has
// only 15 variables. Every proper subset of its clauses is satisfiable.
func tseitinK6(rng *rand.Rand) [][]Lit {
	const k = 6
	edge := rng.Perm(k * (k - 1) / 2)
	var cnf [][]Lit
	odd := 1
	for v := 0; v < k; v++ {
		var es []int
		for u, e := 0, 0; u < k; u++ {
			for w := u + 1; w < k; w++ {
				if u == v || w == v {
					es = append(es, edge[e])
				}
				e++
			}
		}
		charge := rng.Intn(2)
		if v == k-1 {
			charge = odd
		}
		odd ^= charge
		// Forbid every sign pattern of the other parity.
		for m := 0; m < 1<<len(es); m++ {
			if bits.OnesCount(uint(m))%2 != charge {
				cl := make([]Lit, len(es))
				for j, e := range es {
					cl[j] = MkLit(e, m>>j&1 == 1)
				}
				cnf = append(cnf, cl)
			}
		}
	}
	rng.Shuffle(len(cnf), func(i, j int) { cnf[i], cnf[j] = cnf[j], cnf[i] })
	return cnf
}

// TestIncrementalQueueMatchesBruteForce drives two solvers through one
// random interleaving of NewVar, AddClause, Solve under assumptions and
// SolvePreferring, the way a bitblast session uses its SAT core. Variables
// are created untouched and mentioned by a clause only later, so the
// decision queue takes them in after solves have moved its search cursor.
// The clause stream is either random 3-SAT past the threshold or a
// Tseitin parity formula, so solves hit conflicts, backjumps and restarts.
// Every answer must equal brute force, every model must satisfy the
// clauses and the assumptions (and be the lexicographic minimum on the
// preferred literals), and the two solvers must agree on every model bit:
// the exploration engine's witness-driven arm choice relies on the solver
// being a pure function of its call sequence.
func TestIncrementalQueueMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2015))
	n := 40
	if testing.Short() {
		n = 8
	}
	var solves, unsat int
	var total Stats
	for i := 0; i < n; i++ {
		s, twin := New(), New()
		cnf, nVars := tseitinK6(rng), 15
		if i%2 == 0 {
			nVars = 12 + rng.Intn(5)
			cnf = randomClauses(rng, nVars)
		}
		f := maskCNF{}
	steps:
		for step := 0; s.Okay(); step++ {
			op := rng.Intn(20)
			if len(cnf) == 0 {
				op = 20 // only solves are left
			}
			need := 0 // variables the next clause mentions
			if len(cnf) > 0 {
				for _, l := range cnf[0] {
					need = max(need, l.Var()+1)
				}
			}
			switch {
			case f.nVars < need || op < 2 && f.nVars < nVars:
				if v := s.NewVar(); v != twin.NewVar() || v != f.nVars {
					t.Fatalf("instance %d step %d: NewVar returned %d, want %d", i, step, v, f.nVars)
				}
				f.nVars++
			case op < 14:
				lits := cnf[0]
				cnf = cnf[1:]
				var pos, neg uint32
				for _, l := range lits {
					if l.Neg() {
						neg |= 1 << l.Var()
					} else {
						pos |= 1 << l.Var()
					}
				}
				f.pos, f.neg = append(f.pos, pos), append(f.neg, neg)
				if ok := s.AddClause(lits...); ok != twin.AddClause(lits...) || !ok && f.satisfiable(nil) {
					t.Fatalf("instance %d step %d: AddClause(%v) derived unsat, brute force has a model", i, step, lits)
				}
			default:
				var assumptions, pref []Lit
				if len(cnf) > 0 {
					assumptions = randomLits(rng, f.nVars, min(f.nVars, rng.Intn(4)))
				}
				if op >= 17 {
					pref = randomLits(rng, f.nVars, rng.Intn(f.nVars+1))
				}
				got := s.SolvePreferring(assumptions, pref)
				solves++
				if got != twin.SolvePreferring(assumptions, pref) {
					t.Fatalf("instance %d step %d: twin solvers disagree on sat", i, step)
				}
				var want uint32
				var wantOK bool
				if pref == nil {
					wantOK = f.satisfiable(assumptions)
				} else {
					want, wantOK = lexMin(f, assumptions, pref)
				}
				if got != wantOK {
					t.Fatalf("instance %d step %d: SolvePreferring(%v, %v) = %v, brute force %v", i, step, assumptions, pref, got, wantOK)
				}
				if !got {
					unsat++
					continue
				}
				m := values(s, f.nVars)
				if tm := values(twin, f.nVars); tm != m {
					t.Fatalf("instance %d step %d: twin models differ: %b vs %b", i, step, m, tm)
				}
				if !f.sat(m) || !holdsAll(m, assumptions) {
					t.Fatalf("instance %d step %d: model %b violates a clause or an assumption %v", i, step, m, assumptions)
				}
				if m&prefMask(pref) != want {
					t.Fatalf("instance %d step %d: model on pref %b, lexicographic minimum %b", i, step, m&prefMask(pref), want)
				}
				if len(cnf) == 0 {
					break steps // every clause is in and the last solve agreed
				}
			}
		}
		total.Conflicts += s.Stats.Conflicts
		total.Restarts += s.Stats.Restarts
		total.Learnt += s.Stats.Learnt
	}
	t.Logf("%d solves, %d unsat; %d conflicts, %d learnt, %d restarts", solves, unsat, total.Conflicts, total.Learnt, total.Restarts)
	if total.Conflicts == 0 || total.Learnt == 0 || total.Restarts == 0 {
		t.Fatalf("generator no longer reaches conflicts, learning and restarts: %+v", total)
	}
}
