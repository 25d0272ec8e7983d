// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver over propositional CNF. It is the decision-procedure core on which
// the bitvector solver (the reproduction's STP substitute) is built.
//
// Features: two-watched-literal unit propagation over a pointer-free
// clause arena (MiniSat's clause references, Eén and Sörensson, "An
// Extensible SAT-solver", SAT 2003) that compacts itself once deleted
// learnt clauses fill half of it, a VMTF (variable
// move-to-front) decision queue (Biere and Fröhlich, "Evaluating CDCL
// Variable Scoring Schemes", SAT 2015), first-UIP conflict analysis with
// clause learning and non-chronological backjumping, Luby-sequence
// restarts, phase saving, and an optional preferred-decision list
// (SolvePreferring) that yields lexicographically minimal models in one
// search. The solver is deterministic: the same sequence of calls always
// produces the same answers and, when satisfiable, the same models.
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

// cref is a clause reference: the offset of the clause's header word in
// Solver.arena. A clause is its header, len<<2 | hdrLearnt | hdrDeleted,
// followed by its len literals, so the clause database holds no Go
// pointers for the garbage collector to scan or guard with write barriers.
type cref uint32

// noClause is the reason of a decision, an assumption or an unassigned
// variable.
const noClause cref = 1<<32 - 1

const (
	hdrDeleted = 1
	hdrLearnt  = 2
)

type watcher struct {
	c       cref
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
	arena   []Lit // every clause, header then literals (see cref)
	wasted  int   // arena words held by deleted clauses
	clauses []cref
	learnts []cref
	watches [][]watcher // indexed by literal
	scratch []Lit       // AddClause's normalized clause

	assign   []lbool // by variable
	level    []int32 // decision level of assignment
	reason   []cref
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

	// The decision queue: a doubly linked list of the variables that occur
	// in at least one clause, in bump order. prev points toward older
	// variables, next toward newer ones, -1 ends the list; last is the most
	// recently bumped. stamp[v] is v's position in bump order (0: never
	// queued). Every queued variable newer than the search cursor is
	// assigned, so pickBranchVar walks from search toward older variables.
	// Unconstrained variables are never queued: an untouched variable can
	// never affect satisfiability, and it reads as false from Value either
	// way.
	prev, next   []int32
	stamp        []uint64
	last, search int
	stamps       uint64

	phase []bool // saved phases

	seen          []bool
	model         []lbool // snapshot of the last satisfying assignment
	unsatisfiable bool

	Stats Stats
}

// New creates a solver with no variables or clauses.
func New() *Solver {
	return &Solver{last: -1, search: -1}
}

// NewVar adds a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := s.nVars
	s.nVars++
	s.watches = append(s.watches, nil, nil)
	s.assign = append(s.assign, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, noClause)
	s.prev = append(s.prev, -1)
	s.next = append(s.next, -1)
	s.stamp = append(s.stamp, 0)
	s.phase = append(s.phase, false)
	s.seen = append(s.seen, false)
	return v
}

// markTouched records that v occurs in a clause: the first time, v enters
// the decision queue at the front.
func (s *Solver) markTouched(v int) {
	if s.stamp[v] == 0 {
		s.varBump(v)
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
	norm := s.scratch[:0]
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
	s.scratch = norm
	for _, l := range norm {
		s.markTouched(l.Var())
	}
	switch len(norm) {
	case 0:
		s.unsatisfiable = true
		return false
	case 1:
		s.uncheckedEnqueue(norm[0], noClause)
		if s.propagate() != noClause {
			s.unsatisfiable = true
			return false
		}
		return true
	}
	s.clauses = append(s.clauses, s.newClause(norm, false))
	return true
}

// newClause appends lits to the arena as one clause and watches its first
// two literals.
func (s *Solver) newClause(lits []Lit, learnt bool) cref {
	c := cref(len(s.arena))
	h := Lit(len(lits) << 2)
	if learnt {
		h |= hdrLearnt
	}
	s.arena = append(append(s.arena, h), lits...)
	s.watches[lits[0].Not()] = append(s.watches[lits[0].Not()], watcher{c, lits[1]})
	s.watches[lits[1].Not()] = append(s.watches[lits[1].Not()], watcher{c, lits[0]})
	return c
}

// lits returns clause c's literals, aliasing the arena: valid until the
// next clause is added or the arena is compacted.
func (s *Solver) lits(c cref) []Lit {
	n := cref(s.arena[c] >> 2)
	return s.arena[c+1 : c+1+n]
}

func (s *Solver) uncheckedEnqueue(l Lit, from cref) {
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

// propagate performs unit propagation; returns a conflicting clause or
// noClause.
func (s *Solver) propagate() cref {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.Stats.Propagations++
		ws := s.watches[p]
		kept := ws[:0]
		confl := noClause
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if confl != noClause {
				kept = append(kept, w)
				continue
			}
			if s.litValue(w.blocker) == lTrue {
				kept = append(kept, w)
				continue
			}
			c := w.c
			if s.arena[c]&hdrDeleted != 0 {
				continue
			}
			lits := s.lits(c)
			// Ensure the false literal (p.Not()) is at position 1.
			if lits[0] == p.Not() {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			if first != w.blocker && s.litValue(first) == lTrue {
				kept = append(kept, watcher{c, first})
				continue
			}
			// Look for a new literal to watch.
			found := false
			for k := 2; k < len(lits); k++ {
				if s.litValue(lits[k]) != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					q := lits[1].Not()
					s.watches[q] = append(s.watches[q], watcher{c, first})
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
		// Reslicing a list in place stores only its length; storing kept,
		// although it shares the list's array, would be a pointer store
		// with a GC write barrier.
		s.watches[p] = s.watches[p][:len(kept)]
		if confl != noClause {
			return confl
		}
	}
	return noClause
}

// varBump moves v to the front of the decision queue, linking it in if it
// was not queued yet. The search cursor moves to v if v is unassigned, or
// if the queue was empty: once the queue has a variable, the cursor always
// names one.
func (s *Solver) varBump(v int) {
	if s.last == v {
		return
	}
	if s.stamp[v] != 0 {
		p, n := s.prev[v], s.next[v]
		if p >= 0 {
			s.next[p] = n
		}
		s.prev[n] = p // v is not last, so it has a newer neighbour
	}
	s.prev[v], s.next[v] = int32(s.last), -1
	if s.last >= 0 {
		s.next[s.last] = int32(v)
	}
	s.last = v
	s.stamps++
	s.stamp[v] = s.stamps
	if s.assign[v] == lUndef || s.search < 0 {
		s.search = v
	}
}

// analyze performs first-UIP conflict analysis. It returns the learnt
// clause (with the asserting literal first) and the backjump level.
func (s *Solver) analyze(confl cref) ([]Lit, int) {
	learnt := []Lit{0} // slot 0 reserved for the asserting literal
	pathC := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	for {
		for _, q := range s.lits(confl) {
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
	if r == noClause {
		return false
	}
	for _, q := range s.lits(r) {
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
		s.reason[v] = noClause
		if s.search >= 0 && s.stamp[v] > s.stamp[s.search] {
			s.search = v
		}
	}
	s.trail = s.trail[:s.trailLim[level]]
	s.trailLim = s.trailLim[:level]
	s.prefHead = s.prefLim[level]
	s.prefLim = s.prefLim[:level]
	s.qhead = len(s.trail)
}

// pickBranchVar returns the newest unassigned variable of the decision
// queue, or -1 when every queued variable is assigned.
func (s *Solver) pickBranchVar() int {
	for v := s.search; v >= 0; v = int(s.prev[v]) {
		if s.assign[v] == lUndef {
			s.search = v
			return v
		}
	}
	return -1
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
		clauses = append(clauses, append([]Lit(nil), s.lits(c)...))
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
// literal in list order, with the polarity given, before it takes any
// decision from the decision queue. A backjump rewinds the cursor to the
// first preferred literal it unassigned. When satisfiable, the model
// satisfies the pref literals greedily in list order: each pref[i] is true
// unless the clauses, the assumptions and the model's values of
// pref[0..i-1] force it false. That is the lexicographically first model
// on the pref literals, ranking true before false, and a pure function of
// the clauses, the assumptions and pref.
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
// minimization would keep it false too. Saved phases and the decision
// queue's order only steer the decisions taken after the pref list is
// exhausted, so the pref part of the model does not depend on the solver's
// history.
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
		if confl != noClause {
			s.Stats.Conflicts++
			conflictsAtRestart++
			if s.decisionLevel() == 0 {
				s.unsatisfiable = true
				return false
			}
			learnt, bj := s.analyze(confl)
			s.cancelUntil(bj)
			c := noClause
			if len(learnt) > 1 {
				c = s.newClause(learnt, true)
				s.learnts = append(s.learnts, c)
				s.Stats.Learnt++
			}
			s.uncheckedEnqueue(learnt[0], c)
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
			s.uncheckedEnqueue(p, noClause)
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
			s.uncheckedEnqueue(p, noClause)
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
		s.uncheckedEnqueue(MkLit(v, !s.phase[v]), noClause)
	}
}

// reduceDB deletes the learnt clauses longer than the mean learnt clause
// length, keeping reason clauses and binary clauses, and compacts the
// arena once deleted clauses hold more than half of it.
func (s *Solver) reduceDB() {
	if len(s.learnts) < 16 {
		return
	}
	sum := 0
	for _, c := range s.learnts {
		sum += len(s.lits(c))
	}
	mean := float64(sum) / float64(len(s.learnts))
	kept := s.learnts[:0]
	for _, c := range s.learnts {
		n := len(s.lits(c))
		if s.isReason(c) || float64(n) <= mean || n <= 2 {
			kept = append(kept, c)
		} else {
			s.arena[c] |= hdrDeleted
			s.wasted += 1 + n
		}
	}
	s.learnts = kept
	if 2*s.wasted > len(s.arena) {
		s.compact()
	}
}

func (s *Solver) isReason(c cref) bool {
	v := s.lits(c)[0].Var()
	return s.assign[v] != lUndef && s.reason[v] == c
}

// compact copies the live clauses, in clause-list order, into a fresh
// arena and rewrites every reference to them. Each moved clause's old
// header becomes a forwarding header (deleted, length 0) whose next word
// is the clause's new reference; watchers of deleted clauses are dropped,
// and every other watcher keeps its place in its list.
func (s *Solver) compact() {
	old := s.arena
	s.arena = make([]Lit, 0, len(old)-s.wasted)
	move := func(cs []cref) {
		for i, c := range cs {
			n := cref(old[c] >> 2)
			cs[i] = cref(len(s.arena))
			s.arena = append(s.arena, old[c:c+1+n]...)
			old[c], old[c+1] = hdrDeleted, Lit(cs[i])
		}
	}
	move(s.clauses)
	move(s.learnts)
	for p, ws := range s.watches {
		kept := ws[:0]
		for _, w := range ws {
			if old[w.c] == hdrDeleted {
				kept = append(kept, watcher{cref(old[w.c+1]), w.blocker})
			}
		}
		s.watches[p] = kept
	}
	for _, l := range s.trail {
		if r := s.reason[l.Var()]; r != noClause {
			s.reason[l.Var()] = cref(old[r+1])
		}
	}
	s.wasted = 0
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
