package sat

import (
	"math/rand"
	"testing"
)

// Property tests for the incremental idiom the bitblast session layer is
// built on: one persistent solver answering a stream of assumption-stack
// queries while its clause database grows, checked against a from-scratch
// solver (and brute force) on every single call.

// litOf converts the DIMACS-style ±(v) convention to a Lit.
func litOf(l int) Lit {
	if l > 0 {
		return MkLit(l-1, false)
	}
	return MkLit(-l-1, true)
}

// addClauses loads more clauses into an existing solver; false when
// AddClause derived level-0 unsatisfiability.
func addClauses(s *Solver, clauses [][]int) bool {
	for _, cl := range clauses {
		lits := make([]Lit, len(cl))
		for i, l := range cl {
			lits[i] = litOf(l)
		}
		if !s.AddClause(lits...) {
			return false
		}
	}
	return true
}

// randomStack draws a random assumption stack of up to 4 literals, also
// returned as unit clauses for brute force.
func randomStack(rng *rand.Rand, nVars int) (asm []Lit, units [][]int) {
	for k := 0; k < rng.Intn(5); k++ {
		v := 1 + rng.Intn(nVars)
		if rng.Intn(2) == 1 {
			v = -v
		}
		asm = append(asm, litOf(v))
		units = append(units, []int{v})
	}
	return asm, units
}

// TestIncrementalAssumptionStacksMatchFresh drives one persistent solver
// through interleaved clause additions and random assumption-stack solves.
// After every solve the persistent answer must equal (a) a fresh solver
// built from exactly the clauses added so far, solved once under the same
// stack, and (b) brute-force enumeration of those clauses plus the stack
// as units. This is the exact contract the bitblast session layer assumes:
// growing the clause database between assumption solves never corrupts
// later answers, and learned clauses (resolvents of the database only)
// never leak an assumption into the permanent state.
func TestIncrementalAssumptionStacksMatchFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(20120612))
	n := 120
	if testing.Short() {
		n = 30
	}
	for i := 0; i < n; i++ {
		nVars := 1 + rng.Intn(8)
		inc := New()
		for v := 0; v < nVars; v++ {
			inc.NewVar()
		}
		var sofar [][]int
		alive := true
		for round := 0; round < 6; round++ {
			// Grow the database by a random batch of clauses.
			nNew := rng.Intn(8)
			batch := make([][]int, nNew)
			for j := range batch {
				cl := make([]int, 1+rng.Intn(3))
				for k := range cl {
					v := 1 + rng.Intn(nVars)
					if rng.Intn(2) == 1 {
						v = -v
					}
					cl[k] = v
				}
				batch[j] = cl
			}
			sofar = append(sofar, batch...)
			if alive && !addClauses(inc, batch) {
				alive = false
			}
			if !alive {
				if bruteForceSat(nVars, sofar) {
					t.Fatalf("instance %d round %d: incremental AddClause derived unsat, brute force says sat: %v",
						i, round, sofar)
				}
				break
			}
			// Several assumption-stack queries against this database.
			for trial := 0; trial < 3; trial++ {
				asm, units := randomStack(rng, nVars)
				want := bruteForceSat(nVars, append(append([][]int{}, sofar...), units...))
				if got := inc.Solve(asm...); got != want {
					t.Fatalf("instance %d round %d trial %d: incremental(asm=%v)=%v brute=%v clauses=%v",
						i, round, trial, asm, got, want, sofar)
				}
				fresh, ok := buildSolver(nVars, sofar)
				freshGot := ok && fresh.Solve(asm...)
				if freshGot != want {
					t.Fatalf("instance %d round %d trial %d: fresh(asm=%v)=%v brute=%v clauses=%v",
						i, round, trial, asm, freshGot, want, sofar)
				}
			}
		}
	}
}
