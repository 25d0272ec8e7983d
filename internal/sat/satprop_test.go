package sat

import (
	"math/rand"
	"testing"
)

// Property tests: the CDCL core against a brute-force enumerator on random
// small CNF instances. Clauses use the DIMACS-style convention: literal
// +k / -k is variable k-1 positive / negated.

// bruteForceSat decides satisfiability by enumerating all 2^nVars
// assignments.
func bruteForceSat(nVars int, clauses [][]int) bool {
	for m := 0; m < 1<<nVars; m++ {
		ok := true
		for _, cl := range clauses {
			clauseSat := false
			for _, l := range cl {
				v := l
				if v < 0 {
					v = -v
				}
				val := m>>(v-1)&1 == 1
				if (l > 0) == val {
					clauseSat = true
					break
				}
			}
			if !clauseSat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// buildSolver loads a CNF instance into a fresh CDCL solver. The second
// return is false when AddClause already derived unsatisfiability.
func buildSolver(nVars int, clauses [][]int) (*Solver, bool) {
	s := New()
	for i := 0; i < nVars; i++ {
		s.NewVar()
	}
	for _, cl := range clauses {
		lits := make([]Lit, len(cl))
		for i, l := range cl {
			if l > 0 {
				lits[i] = MkLit(l-1, false)
			} else {
				lits[i] = MkLit(-l-1, true)
			}
		}
		if !s.AddClause(lits...) {
			return s, false
		}
	}
	return s, true
}

// modelSatisfies checks the solver's model against the original clauses.
func modelSatisfies(s *Solver, clauses [][]int) bool {
	for _, cl := range clauses {
		clauseSat := false
		for _, l := range cl {
			v := l
			if v < 0 {
				v = -v
			}
			if (l > 0) == s.Value(v-1) {
				clauseSat = true
				break
			}
		}
		if !clauseSat {
			return false
		}
	}
	return true
}

// randomCNF draws a random instance. Duplicate and complementary literals
// within a clause are allowed on purpose: they exercise AddClause's
// normalization (dedup, tautology elimination).
func randomCNF(rng *rand.Rand) (int, [][]int) {
	nVars := 1 + rng.Intn(10)
	nClauses := rng.Intn(41)
	clauses := make([][]int, nClauses)
	for i := range clauses {
		n := 1 + rng.Intn(4)
		cl := make([]int, n)
		for j := range cl {
			v := 1 + rng.Intn(nVars)
			if rng.Intn(2) == 1 {
				v = -v
			}
			cl[j] = v
		}
		clauses[i] = cl
	}
	return nVars, clauses
}

// TestCDCLMatchesBruteForce: on 500 random instances the CDCL answer must
// equal exhaustive enumeration, and every SAT answer must come with a model
// satisfying the original clauses.
func TestCDCLMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(20120612)) // the paper's publication year+date
	n := 500
	if testing.Short() {
		n = 100
	}
	for i := 0; i < n; i++ {
		nVars, clauses := randomCNF(rng)
		want := bruteForceSat(nVars, clauses)
		s, ok := buildSolver(nVars, clauses)
		if !ok {
			if want {
				t.Fatalf("instance %d: AddClause derived unsat, brute force says sat: vars=%d clauses=%v",
					i, nVars, clauses)
			}
			continue
		}
		got := s.Solve()
		if got != want {
			t.Fatalf("instance %d: CDCL=%v brute=%v vars=%d clauses=%v", i, got, want, nVars, clauses)
		}
		if got && !modelSatisfies(s, clauses) {
			t.Fatalf("instance %d: model does not satisfy the instance: vars=%d clauses=%v",
				i, nVars, clauses)
		}
	}
}

// TestCDCLAssumptionsMatchBruteForce: Solve under assumption literals must
// equal brute force of the clauses plus the assumptions as units — and the
// solver must stay reusable afterwards (assumptions are retracted).
func TestCDCLAssumptionsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 200
	if testing.Short() {
		n = 50
	}
	for i := 0; i < n; i++ {
		nVars, clauses := randomCNF(rng)
		s, ok := buildSolver(nVars, clauses)
		if !ok {
			continue
		}
		base := bruteForceSat(nVars, clauses)
		if s.Solve() != base {
			t.Fatalf("instance %d: base solve mismatch", i)
		}
		for trial := 0; trial < 3; trial++ {
			var asm []Lit
			withUnits := clauses
			for k := 0; k <= rng.Intn(3); k++ {
				v := 1 + rng.Intn(nVars)
				neg := rng.Intn(2) == 1
				asm = append(asm, MkLit(v-1, neg))
				u := v
				if neg {
					u = -v
				}
				withUnits = append(withUnits, []int{u})
			}
			want := bruteForceSat(nVars, withUnits)
			if got := s.Solve(asm...); got != want {
				t.Fatalf("instance %d trial %d: CDCL(asm=%v)=%v brute=%v clauses=%v",
					i, trial, asm, got, want, clauses)
			}
		}
		// Assumptions retracted: the base query must still give the same
		// answer.
		if s.Solve() != base {
			t.Fatalf("instance %d: solver state polluted by assumptions", i)
		}
	}
}

// TestCDCLDeterministicModel: the same clause set must produce the same
// model on every fresh solve (the engine's reproducibility relies on it).
func TestCDCLDeterministicModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		nVars, clauses := randomCNF(rng)
		run := func() ([]bool, bool) {
			s, ok := buildSolver(nVars, clauses)
			if !ok || !s.Solve() {
				return nil, false
			}
			m := make([]bool, nVars)
			for v := 0; v < nVars; v++ {
				m[v] = s.Value(v)
			}
			return m, true
		}
		m1, ok1 := run()
		m2, ok2 := run()
		if ok1 != ok2 {
			t.Fatalf("instance %d: result flip-flopped", i)
		}
		for v := range m1 {
			if m1[v] != m2[v] {
				t.Fatalf("instance %d: model differs at var %d", i, v)
			}
		}
	}
}

// FuzzCDCLvsBruteForce is the native fuzz entry: arbitrary bytes decode
// into a small CNF instance and the CDCL answer is checked against
// enumeration. `go test` runs the seed corpus; `go test -fuzz=FuzzCDCL`
// explores further.
func FuzzCDCLvsBruteForce(f *testing.F) {
	f.Add([]byte{3, 2, 1, 2, 5, 6})
	f.Add([]byte{1, 1, 1, 2}) // x and ¬x: unsat
	f.Add([]byte{8, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		nVars := int(data[0])%8 + 1
		var clauses [][]int
		var cur []int
		for _, b := range data[1:] {
			if len(clauses) >= 24 {
				break
			}
			lit := int(b) % (2 * nVars)
			v := lit/2 + 1
			if lit%2 == 1 {
				v = -v
			}
			cur = append(cur, v)
			if len(cur) == int(b)%3+1 {
				clauses = append(clauses, cur)
				cur = nil
			}
		}
		if len(cur) > 0 {
			clauses = append(clauses, cur)
		}
		want := bruteForceSat(nVars, clauses)
		s, ok := buildSolver(nVars, clauses)
		if !ok {
			if want {
				t.Fatalf("AddClause derived unsat, brute force says sat: vars=%d clauses=%v", nVars, clauses)
			}
			return
		}
		if got := s.Solve(); got != want {
			t.Fatalf("CDCL=%v brute=%v vars=%d clauses=%v", got, want, nVars, clauses)
		}
		if want && !modelSatisfies(s, clauses) {
			t.Fatalf("model does not satisfy instance: vars=%d clauses=%v", nVars, clauses)
		}
	})
}
