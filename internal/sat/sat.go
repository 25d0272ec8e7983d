// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver over propositional CNF. It is the decision-procedure core on which
// the bitvector solver (the reproduction's STP substitute) is built.
//
// Features: two-watched-literal unit propagation, VSIDS-style decision
// activity with exponential decay, first-UIP conflict analysis with clause
// learning and non-chronological backjumping, Luby-sequence restarts,
// phase saving, and an optional preferred-decision list (SolvePreferring)
// that yields lexicographically minimal models in one search. The solver is
// deterministic: the same clause set always produces the same answer and,
// when satisfiable, the same model.
package sat

import "fmt"

// Lit is a literal: variable v (0-based) as positive literal 2v, negative
// literal 2v+1.
type Lit int32

// MkLit builds the literal for variable v with the given sign (false =
// positive, true = negated).
func MkLit(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the variable index of l.
func (l Lit) Var() int { return int(l >> 1) }

// Neg reports whether l is a negated literal.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complement literal.
func (l Lit) Not() Lit { return l ^ 1 }

func (l Lit) String() string {
	if l.Neg() {
		return fmt.Sprintf("-%d", l.Var()+1)
	}
	return fmt.Sprintf("%d", l.Var()+1)
}

type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

type clause struct {
	lits    []Lit
	learnt  bool
	act     float64
	deleted bool
}

type watcher struct {
	c       *clause
	blocker Lit // quick check: if blocker true, clause already satisfied
}

// Stats counts solver work, reported by the evaluation harness.
type Stats struct {
	Decisions    int64
	Propagations int64
	Conflicts    int64
	Learnt       int64
	Restarts     int64
}

// Solver is a CDCL SAT solver. The zero value is not usable; create with New.
type Solver struct {
	nVars   int
	clauses []*clause
	learnts []*clause
	watches [][]watcher // indexed by literal

	assign   []lbool // by variable
	level    []int32 // decision level of assignment
	reason   []*clause
	trail    []Lit
	trailLim []int
	qhead    int

	// pref is the current SolvePreferring call's preferred-decision list.
	// Every pref[i] with i < prefHead is assigned; prefLim[d] is prefHead
	// when decision level d+1 was opened, so a backjump rewinds the cursor
	// to the first preferred literal it unassigned.
	pref     []Lit
	prefHead int
	prefLim  []int

	activity []float64
	varInc   float64
	order    *varHeap
	phase    []bool // saved phases
	// touched marks variables that occur in at least one clause.
	// Unconstrained variables must not soak up branch decisions; an
	// untouched variable can never affect satisfiability, and it reads as
	// false from Value either way.
	touched []bool

	seen          []bool
	model         []lbool // snapshot of the last satisfying assignment
	unsatisfiable bool

	Stats Stats
}

// New creates a solver with no variables or clauses.
func New() *Solver {
	s := &Solver{varInc: 1}
	s.order = &varHeap{s: s}
	return s
}

// NewVar adds a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := s.nVars
	s.nVars++
	s.watches = append(s.watches, nil, nil)
	s.assign = append(s.assign, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	s.activity = append(s.activity, 0)
	s.phase = append(s.phase, false)
	s.seen = append(s.seen, false)
	s.touched = append(s.touched, false)
	s.order.push(v)
	return v
}

// markTouched records that v occurs in a clause, re-entering it into the
// decision heap if a previous pickBranchVar discarded it as unconstrained.
func (s *Solver) markTouched(v int) {
	if !s.touched[v] {
		s.touched[v] = true
		if s.assign[v] == lUndef {
			s.order.push(v)
		}
	}
}

// NumVars returns the number of variables created.
func (s *Solver) NumVars() int { return s.nVars }

func (s *Solver) litValue(l Lit) lbool {
	v := s.assign[l.Var()]
	if v == lUndef {
		return lUndef
	}
	if l.Neg() {
		if v == lTrue {
			return lFalse
		}
		return lTrue
	}
	return v
}

// AddClause adds a clause over existing variables. It returns false if the
// solver is already known unsatisfiable (e.g. after adding an empty clause
// or two conflicting unit clauses).
func (s *Solver) AddClause(lits ...Lit) bool {
	if s.unsatisfiable {
		return false
	}
	if len(s.trailLim) != 0 {
		panic("sat: AddClause called during solving")
	}
	// Normalize: drop duplicate and false literals, detect tautology and
	// already-satisfied clauses at level 0.
	norm := make([]Lit, 0, len(lits))
	for _, l := range lits {
		if l.Var() >= s.nVars {
			panic(fmt.Sprintf("sat: literal %v references unknown variable", l))
		}
		switch s.litValue(l) {
		case lTrue:
			return true // satisfied at level 0
		case lFalse:
			continue // drop
		}
		dup, taut := false, false
		for _, m := range norm {
			if m == l {
				dup = true
				break
			}
			if m == l.Not() {
				taut = true
				break
			}
		}
		if taut {
			return true
		}
		if !dup {
			norm = append(norm, l)
		}
	}
	for _, l := range norm {
		s.markTouched(l.Var())
	}
	switch len(norm) {
	case 0:
		s.unsatisfiable = true
		return false
	case 1:
		s.uncheckedEnqueue(norm[0], nil)
		if s.propagate() != nil {
			s.unsatisfiable = true
			return false
		}
		return true
	}
	c := &clause{lits: norm}
	s.clauses = append(s.clauses, c)
	s.attach(c)
	return true
}

func (s *Solver) attach(c *clause) {
	s.watches[c.lits[0].Not()] = append(s.watches[c.lits[0].Not()], watcher{c, c.lits[1]})
	s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], watcher{c, c.lits[0]})
}

func (s *Solver) uncheckedEnqueue(l Lit, from *clause) {
	v := l.Var()
	if l.Neg() {
		s.assign[v] = lFalse
	} else {
		s.assign[v] = lTrue
	}
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.phase[v] = !l.Neg()
	s.trail = append(s.trail, l)
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) newDecisionLevel() {
	s.trailLim = append(s.trailLim, len(s.trail))
	s.prefLim = append(s.prefLim, s.prefHead)
}

// propagate performs unit propagation; returns a conflicting clause or nil.
func (s *Solver) propagate() *clause {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.Stats.Propagations++
		ws := s.watches[p]
		kept := ws[:0]
		var confl *clause
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if confl != nil {
				kept = append(kept, w)
				continue
			}
			if s.litValue(w.blocker) == lTrue {
				kept = append(kept, w)
				continue
			}
			c := w.c
			if c.deleted {
				continue
			}
			// Ensure the false literal (p.Not()) is at position 1.
			if c.lits[0] == p.Not() {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			first := c.lits[0]
			if first != w.blocker && s.litValue(first) == lTrue {
				kept = append(kept, watcher{c, first})
				continue
			}
			// Look for a new literal to watch.
			found := false
			for k := 2; k < len(c.lits); k++ {
				if s.litValue(c.lits[k]) != lFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], watcher{c, first})
					found = true
					break
				}
			}
			if found {
				continue // watcher moved
			}
			// Clause is unit or conflicting.
			kept = append(kept, watcher{c, first})
			if s.litValue(first) == lFalse {
				confl = c
				s.qhead = len(s.trail)
			} else {
				s.uncheckedEnqueue(first, c)
			}
		}
		s.watches[p] = kept
		if confl != nil {
			return confl
		}
	}
	return nil
}

func (s *Solver) varBump(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

// analyze performs first-UIP conflict analysis. It returns the learnt
// clause (with the asserting literal first) and the backjump level.
func (s *Solver) analyze(confl *clause) ([]Lit, int) {
	learnt := []Lit{0} // slot 0 reserved for the asserting literal
	pathC := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	for {
		for _, q := range confl.lits {
			if p != -1 && q == p {
				continue
			}
			v := q.Var()
			if !s.seen[v] && s.level[v] > 0 {
				s.seen[v] = true
				s.varBump(v)
				if int(s.level[v]) >= s.decisionLevel() {
					pathC++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		// Pick next literal on the trail to expand.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.seen[p.Var()] = false
		pathC--
		if pathC == 0 {
			break
		}
		confl = s.reason[p.Var()]
	}
	learnt[0] = p.Not()

	// Clause minimization: drop literals implied by the rest. out must not
	// alias learnt: the seen flags of dropped literals are cleared from the
	// original learnt slice below, and an in-place filter would overwrite
	// them before that happens.
	out := make([]Lit, 1, len(learnt))
	out[0] = learnt[0]
	for _, l := range learnt[1:] {
		if !s.redundant(l) {
			out = append(out, l)
		}
	}
	for _, l := range learnt {
		s.seen[l.Var()] = false
	}

	// Backjump level = max level among non-asserting literals.
	bj := 0
	if len(out) > 1 {
		maxI := 1
		for i := 2; i < len(out); i++ {
			if s.level[out[i].Var()] > s.level[out[maxI].Var()] {
				maxI = i
			}
		}
		out[1], out[maxI] = out[maxI], out[1]
		bj = int(s.level[out[1].Var()])
	}
	return out, bj
}

// redundant reports whether literal l in a learnt clause is implied by the
// remaining clause literals (local minimization: its reason's literals are
// all seen).
func (s *Solver) redundant(l Lit) bool {
	r := s.reason[l.Var()]
	if r == nil {
		return false
	}
	for _, q := range r.lits {
		if q.Var() == l.Var() {
			continue
		}
		if !s.seen[q.Var()] && s.level[q.Var()] > 0 {
			return false
		}
	}
	return true
}

func (s *Solver) cancelUntil(level int) {
	if s.decisionLevel() <= level {
		return
	}
	for i := len(s.trail) - 1; i >= s.trailLim[level]; i-- {
		v := s.trail[i].Var()
		s.assign[v] = lUndef
		s.reason[v] = nil
		s.order.push(v)
	}
	s.trail = s.trail[:s.trailLim[level]]
	s.trailLim = s.trailLim[:level]
	s.prefHead = s.prefLim[level]
	s.prefLim = s.prefLim[:level]
	s.qhead = len(s.trail)
}

func (s *Solver) pickBranchVar() int {
	for {
		v, ok := s.order.pop()
		if !ok {
			return -1
		}
		// Unconstrained variables (input bits no clause mentions) are
		// skipped: no clause can become unsatisfied by leaving them
		// unassigned, and they default to false in the model either way.
		// markTouched re-enters them if a later AddClause makes them
		// relevant.
		if s.assign[v] == lUndef && s.touched[v] {
			return v
		}
	}
}

// luby computes the Luby restart sequence value for index i (1-based):
// 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
func luby(i int64) int64 {
	for k := uint(1); ; k++ {
		if i == (1<<k)-1 {
			return 1 << (k - 1)
		}
		if i < (1<<k)-1 {
			i -= (1 << (k - 1)) - 1
			k = 0 // restart subsequence search for the reduced index
		}
	}
}

// DumpCNF returns the solver's variable count and clause database — level-0
// unit assignments as one-literal clauses, then the added clauses in
// insertion order. Tests use it to assert two encoders emitted identical
// CNF; call it only between queries (decision level 0).
func (s *Solver) DumpCNF() (nVars int, clauses [][]Lit) {
	for _, l := range s.trail {
		if s.level[l.Var()] == 0 {
			clauses = append(clauses, []Lit{l})
		}
	}
	for _, c := range s.clauses {
		clauses = append(clauses, append([]Lit(nil), c.lits...))
	}
	return s.nVars, clauses
}

// Solve decides satisfiability under the given assumption literals. When
// satisfiable, the model is readable via Value. Assumptions behave like
// temporary unit clauses: they are retracted afterwards, so the solver can
// be reused incrementally (the crosschecking phase issues many queries over
// a shared variable space).
func (s *Solver) Solve(assumptions ...Lit) bool {
	return s.SolvePreferring(assumptions, nil)
}

// SolvePreferring is Solve with a preferred-decision list: once the
// assumptions are placed, the solver decides each still-unassigned pref
// literal in list order, with the polarity given, before it makes any VSIDS
// decision. A backjump rewinds the cursor to the first preferred literal it
// unassigned. When satisfiable, the model satisfies the pref literals
// greedily in list order: each pref[i] is true unless the clauses, the
// assumptions and the model's values of pref[0..i-1] force it false. That
// is the lexicographically first model on the pref literals, ranking true
// before false, and a pure function of the clauses, the assumptions and
// pref.
//
// Why one search suffices: pref literals are only ever decided with their
// preferred polarity, and only after every earlier pref literal is
// assigned. So a pref literal that ends up false was never decided; it was
// enqueued either by unit propagation or as the asserting literal of a
// learnt clause. Its reason is a clause implied by the database (learnt
// clauses are resolvents of database clauses, never of assumptions), and
// the decisions at or below its level on the final trail are the
// assumptions and earlier pref literals. Hence the database, the
// assumptions and the earlier pref values force it false, which is
// exactly the condition under which the greedy one-literal-at-a-time
// minimization would keep it false too. Saved phases and activities only
// steer the VSIDS decisions taken after the pref list is exhausted, so the
// pref part of the model does not depend on the solver's history.
func (s *Solver) SolvePreferring(assumptions, pref []Lit) bool {
	if s.unsatisfiable {
		return false
	}
	s.cancelUntil(0)
	s.pref, s.prefHead = pref, 0
	defer func() { s.pref = nil }()

	maxLearnts := float64(len(s.clauses))/3 + 100
	restartN := int64(0)
	conflictsAtRestart := int64(0)
	limit := luby(1) * 64

	for {
		confl := s.propagate()
		if confl != nil {
			s.Stats.Conflicts++
			conflictsAtRestart++
			if s.decisionLevel() == 0 {
				s.unsatisfiable = true
				return false
			}
			learnt, bj := s.analyze(confl)
			s.cancelUntil(bj)
			var c *clause
			if len(learnt) > 1 {
				c = &clause{lits: learnt, learnt: true}
				s.learnts = append(s.learnts, c)
				s.attach(c)
				s.Stats.Learnt++
			}
			s.uncheckedEnqueue(learnt[0], c)
			s.varInc *= 1.0 / 0.95
			continue
		}

		if conflictsAtRestart >= limit {
			s.Stats.Restarts++
			restartN++
			conflictsAtRestart = 0
			limit = luby(restartN+1) * 64
			s.cancelUntil(0)
		}
		if float64(len(s.learnts)) > maxLearnts+float64(len(s.trail)) {
			s.reduceDB()
			maxLearnts *= 1.1
		}

		// Apply pending assumptions as decisions.
		if s.decisionLevel() < len(assumptions) {
			p := assumptions[s.decisionLevel()]
			switch s.litValue(p) {
			case lTrue:
				// Already implied; open an empty decision level to keep the
				// level/assumption correspondence.
				s.newDecisionLevel()
				continue
			case lFalse:
				s.cancelUntil(0)
				return false
			}
			s.newDecisionLevel()
			s.uncheckedEnqueue(p, nil)
			continue
		}

		// Then the preferred literals, in order, each with its own polarity.
		for s.prefHead < len(s.pref) && s.litValue(s.pref[s.prefHead]) != lUndef {
			s.prefHead++
		}
		if s.prefHead < len(s.pref) {
			p := s.pref[s.prefHead]
			s.Stats.Decisions++
			s.newDecisionLevel()
			s.prefHead++
			s.uncheckedEnqueue(p, nil)
			continue
		}

		v := s.pickBranchVar()
		if v == -1 {
			// Model found. Snapshot it and retract all decisions (including
			// assumptions) so the solver is immediately reusable for more
			// AddClause / Solve calls.
			if cap(s.model) < s.nVars {
				s.model = make([]lbool, s.nVars)
			}
			s.model = s.model[:s.nVars]
			copy(s.model, s.assign)
			s.cancelUntil(0)
			return true
		}
		s.Stats.Decisions++
		s.newDecisionLevel()
		s.uncheckedEnqueue(MkLit(v, !s.phase[v]), nil)
	}
}

// reduceDB removes half of the learnt clauses (the least active, keeping
// reason clauses).
func (s *Solver) reduceDB() {
	if len(s.learnts) < 16 {
		return
	}
	// Partial selection: keep the more active half.
	acts := make([]float64, len(s.learnts))
	for i, c := range s.learnts {
		acts[i] = float64(len(c.lits)) // approximate: prefer short clauses
	}
	// Threshold at median length.
	med := medianF(acts)
	kept := s.learnts[:0]
	for _, c := range s.learnts {
		if s.isReason(c) || float64(len(c.lits)) <= med || len(c.lits) <= 2 {
			kept = append(kept, c)
		} else {
			c.deleted = true
		}
	}
	s.learnts = kept
}

func (s *Solver) isReason(c *clause) bool {
	if len(c.lits) == 0 {
		return false
	}
	v := c.lits[0].Var()
	return s.assign[v] != lUndef && s.reason[v] == c
}

func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	// Counting-based approximate median over small integer lengths.
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Value returns the model value of variable v after a satisfiable Solve.
func (s *Solver) Value(v int) bool {
	if v < len(s.model) {
		return s.model[v] == lTrue
	}
	return false
}

// Okay reports whether the solver has not yet derived level-0 unsatisfiability.
func (s *Solver) Okay() bool { return !s.unsatisfiable }

// varHeap is a max-heap over variable activity used for VSIDS decisions.
type varHeap struct {
	s       *Solver
	heap    []int
	indices []int // var -> position+1 (0 = absent)
}

func (h *varHeap) less(a, b int) bool {
	return h.s.activity[h.heap[a]] > h.s.activity[h.heap[b]]
}

func (h *varHeap) swap(a, b int) {
	h.heap[a], h.heap[b] = h.heap[b], h.heap[a]
	h.indices[h.heap[a]] = a + 1
	h.indices[h.heap[b]] = b + 1
}

func (h *varHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.swap(i, p)
		i = p
	}
}

func (h *varHeap) down(i int) {
	n := len(h.heap)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}

func (h *varHeap) push(v int) {
	for v >= len(h.indices) {
		h.indices = append(h.indices, 0)
	}
	if h.indices[v] != 0 {
		return
	}
	h.heap = append(h.heap, v)
	h.indices[v] = len(h.heap)
	h.up(len(h.heap) - 1)
}

func (h *varHeap) pop() (int, bool) {
	if len(h.heap) == 0 {
		return 0, false
	}
	v := h.heap[0]
	last := len(h.heap) - 1
	h.heap[0] = h.heap[last]
	h.indices[h.heap[0]] = 1
	h.heap = h.heap[:last]
	h.indices[v] = 0
	if len(h.heap) > 0 {
		h.down(0)
	}
	return v, true
}

func (h *varHeap) update(v int) {
	if v < len(h.indices) && h.indices[v] != 0 {
		h.up(h.indices[v] - 1)
	}
}
