package sat

import (
	"math/rand"
	"slices"
	"testing"
)

// liveClauses returns the literals of every clause the solver still
// holds, problem clauses first, then learnt ones.
func liveClauses(s *Solver) [][]Lit {
	var out [][]Lit
	for _, c := range append(slices.Clone(s.clauses), s.learnts...) {
		out = append(out, slices.Clone(s.lits(c)))
	}
	return out
}

// checkWasted fails unless the arena holds the live clauses' words plus
// exactly the words counted as wasted.
func checkWasted(t *testing.T, s *Solver) {
	t.Helper()
	words := 0
	for _, c := range append(slices.Clone(s.clauses), s.learnts...) {
		if s.arena[c]&hdrDeleted != 0 {
			t.Fatalf("clause list names deleted clause %d", c)
		}
		words += 1 + len(s.lits(c))
	}
	if words+s.wasted != len(s.arena) {
		t.Fatalf("arena holds %d words, live clauses %d, wasted %d", len(s.arena), words, s.wasted)
	}
}

// checkCompacted fails unless the arena holds exactly the live clauses'
// words and every watcher names a live clause through one of its two
// watched literals, each live clause being watched exactly twice.
func checkCompacted(t *testing.T, s *Solver) {
	t.Helper()
	if checkWasted(t, s); s.wasted != 0 {
		t.Fatalf("%d words wasted after compaction", s.wasted)
	}
	watched := make(map[cref]int)
	for _, c := range append(slices.Clone(s.clauses), s.learnts...) {
		watched[c] = 0
	}
	for p, ws := range s.watches {
		for _, w := range ws {
			n, live := watched[w.c]
			if !live {
				t.Fatalf("watch list of %v names %d, not a live clause", Lit(p), w.c)
			}
			if lits := s.lits(w.c); lits[0].Not() != Lit(p) && lits[1].Not() != Lit(p) {
				t.Fatalf("watch list of %v names clause %v, which does not watch it", Lit(p), lits)
			}
			watched[w.c] = n + 1
		}
	}
	for c, n := range watched {
		if n != 2 {
			t.Fatalf("clause %v has %d watchers", s.lits(c), n)
		}
	}
}

// TestArenaCompactionMatchesBruteForce drives incremental streams over 18
// variables: three Tseitin K6 parity formulas on the same 15 edge
// variables, each guarded by its own variable, plus random 3-clauses added
// one every few solves, solved under an assumption stack that grows and
// shrinks. A solve that assumes a guard refutes its parity formula through
// hundreds of conflicts, and reduceDB compacts the arena during it. After
// every solve, reduceDB runs again, and the arena is compacted whenever it
// holds deleted clauses, even below reduceDB's half-wasted trigger, so the
// later solves run on compacted arenas too. Every answer must match brute force, a compaction must leave
// DumpCNF and every live clause's literals unchanged, and afterwards the
// arena must hold exactly the live clauses.
func TestArenaCompactionMatchesBruteForce(t *testing.T) {
	const edges, n = 15, 18
	rng := rand.New(rand.NewSource(5))
	compactions := 0
	for round := 0; round < 3; round++ {
		s := New()
		for v := 0; v < n; v++ {
			s.NewVar()
		}
		// models lists the assignments (bit v = variable v) that satisfy
		// every clause added so far.
		var models []uint32
		for m := uint32(0); m < 1<<n; m++ {
			models = append(models, m)
		}
		add := func(lits ...Lit) {
			s.AddClause(lits...)
			models = slices.DeleteFunc(models, func(m uint32) bool {
				return !slices.ContainsFunc(lits, func(l Lit) bool { return litHolds(m, l) })
			})
		}
		for g := edges; g < n; g++ {
			for _, cl := range tseitinK6(rng) {
				add(append(cl, MkLit(g, true))...)
			}
		}
		var stack []Lit
		for q := 0; q < 150 && s.Okay(); q++ {
			if len(stack) > 0 && rng.Intn(3) == 0 {
				stack = stack[:rng.Intn(len(stack))]
			} else {
				stack = append(stack, MkLit(rng.Intn(n), rng.Intn(2) == 1))
			}
			want := slices.ContainsFunc(models, func(m uint32) bool { return holdsAll(m, stack) })
			if got := s.Solve(stack...); got != want {
				t.Fatalf("round %d solve %d: got %v, brute force %v", round, q, got, want)
			} else if m := values(s, n); got && (!slices.Contains(models, m) || !holdsAll(m, stack)) {
				t.Fatalf("round %d solve %d: %018b is not a model", round, q, m)
			}
			checkWasted(t, s)
			before := len(s.arena)
			_, cnf := s.DumpCNF()
			live := liveClauses(s)
			s.reduceDB()
			if s.wasted > 0 {
				s.compact()
			}
			if len(s.arena) < before {
				compactions++
				if _, after := s.DumpCNF(); !slices.EqualFunc(cnf, after, slices.Equal) {
					t.Fatalf("round %d solve %d: DumpCNF changed across compaction", round, q)
				}
				for _, c := range liveClauses(s) {
					if !slices.ContainsFunc(live, func(l []Lit) bool { return slices.Equal(l, c) }) {
						t.Fatalf("round %d solve %d: compaction produced clause %v", round, q, c)
					}
				}
				checkCompacted(t, s)
			}
			if q%5 == 0 {
				add(randomLits(rng, n, 3)...)
			}
		}
	}
	if compactions < 20 {
		t.Fatalf("only %d compactions; the stream no longer exercises them", compactions)
	}
}

// BenchmarkAssumptionSolves times one ordered solve (ns/op) of the shape a
// exploration issues through bitblast.Session. Eight 16-bit
// input fields meet 128 random comparisons with constants (x < c or
// x == c), each a Tseitin chain of one gate per bit whose output either
// polarity of an activation literal asserts. A depth-first walk, as over
// a path tree, solves one arm of a random comparison under the
// activations of the path so far, preferring every input bit 0 (MSB
// first), and pushes the arm that is satisfiable (the first if it is, the
// other without a solve otherwise). At depth 24 it pops to a random
// shallower depth, so the assumption stack grows and shrinks.
func BenchmarkAssumptionSolves(b *testing.B) {
	const fields, width, conds, depth = 8, 16, 128, 24
	rng := rand.New(rand.NewSource(1))
	s := New()
	var pref []Lit
	bit := make([][]Lit, fields)
	for f := range bit {
		for i := 0; i < width; i++ {
			bit[f] = append(bit[f], MkLit(s.NewVar(), false))
		}
		for i := width - 1; i >= 0; i-- {
			pref = append(pref, bit[f][i].Not())
		}
	}
	// gate returns g with g = x ∧ y, or g = x ∨ y when or is set.
	var gate func(x, y Lit, or bool) Lit
	gate = func(x, y Lit, or bool) Lit {
		if or {
			return gate(x.Not(), y.Not(), false).Not() // De Morgan
		}
		g := MkLit(s.NewVar(), false)
		s.AddClause(g.Not(), x)
		s.AddClause(g.Not(), y)
		s.AddClause(g, x.Not(), y.Not())
		return g
	}
	type arms struct{ pos, neg Lit }
	acts := make([]arms, conds)
	for j := range acts {
		x, c := bit[rng.Intn(fields)], rng.Intn(1<<width)
		var out Lit
		if rng.Intn(2) == 0 { // x == c: the conjunction of the bits
			out = x[0] ^ Lit(1-c&1)
			for i := 1; i < width; i++ {
				out = gate(out, x[i]^Lit(1-c>>i&1), false)
			}
		} else { // x < c, from the LSB up: lt_i = ¬x_i ∨ lt_(i-1) if c_i, else ¬x_i ∧ lt_(i-1)
			out = x[0].Not()
			if c&1 == 0 {
				out = gate(out, out.Not(), false) // false
			}
			for i := 1; i < width; i++ {
				out = gate(x[i].Not(), out, c>>i&1 == 1)
			}
		}
		acts[j] = arms{MkLit(s.NewVar(), false), MkLit(s.NewVar(), false)}
		s.AddClause(acts[j].pos.Not(), out)
		s.AddClause(acts[j].neg.Not(), out.Not())
	}
	var stack []Lit
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := acts[rng.Intn(conds)]
		if rng.Intn(2) == 0 {
			a.pos, a.neg = a.neg, a.pos
		}
		if !s.SolvePreferring(append(stack, a.pos), pref) {
			a.pos = a.neg
		}
		if stack = append(stack, a.pos); len(stack) == depth {
			stack = stack[:rng.Intn(depth)]
		}
	}
	b.ReportMetric(float64(s.Stats.Decisions)/float64(b.N), "decisions/op")
	b.ReportMetric(float64(s.Stats.Propagations)/float64(b.N), "propagations/op")
}
