package bitblast

import (
	"time"

	"github.com/soft-testing/soft/internal/sat"
	"github.com/soft-testing/soft/internal/sym"
)

// Session is an incremental Blaster for a stream of related queries: one SAT
// core and one encoding memo persist across many queries, with each query's
// constraints activated through assumption literals instead of being
// re-blasted and re-asserted from scratch (the MiniSat solve-with-assumptions
// idiom). The exploration engine keeps one per worker across the paths of a
// path tree; the crosscheck keeps one per worker across the group-pair
// queries of a pair check (through solver.CheckIn), where every group
// condition recurs in many queries.
//
// Every asserted conjunct c is encoded once, guarded by a fresh activation
// variable a_c via the clause (¬a_c ∨ lit(c)), and cached. Asserting c on a
// later path just pushes a_c onto the session's assumption stack; solving a
// path is one SAT solve under the assumptions (a_1..a_k, extras...).
// Sibling paths in the decision tree — which share their whole constraint
// prefix — therefore share CNF, learned clauses, and VSIDS activity, which
// is where the paths/sec win comes from; crosscheck queries sharing a group
// condition share its encoding the same way.
//
// Answer preservation: assumptions are exact (sat.Solver decides the same
// formula a fresh solver would), learned clauses are resolvents of database
// clauses only (never of assumptions), and CanonicalModel's ordered solve
// fixes the path's variables independently of the solver's history (see
// sat.SolvePreferring), so a Session returns bit-for-bit the answers and
// canonical models a fresh Blaster per path returns. The determinism sweep
// tests in internal/symexec and the probe-loop oracle tests here pin this.
//
// The guarded clause database is satisfiable by construction (every guard is
// satisfied by setting its activation variable false, and Tseitin
// definitions are functional), so the underlying solver can never become
// unconditionally unsatisfiable; Session panics if it does, as that would
// silently poison every later path.
//
// A Session is not safe for concurrent use: the engine and the crosscheck
// create one per worker.
type Session struct {
	b *Blaster

	// acts caches the activation literal per asserted conjunct. Keys are
	// canonical (hash-consed) nodes, so sibling paths hit by pointer; the
	// hash index below catches structurally equal nodes that escaped
	// interning (table cap).
	acts    map[*sym.Expr]sat.Lit
	actHash map[uint64]*sym.Expr

	// varsOf caches the named variables mentioned by a conjunct (in the same
	// stable pre-order Blaster.reserveVars uses) so replayed prefixes don't
	// re-walk their expression DAGs.
	varsOf map[*sym.Expr][]varRef

	// stack holds the activation literals of the current path's asserted
	// conjuncts, in assertion order.
	stack []sat.Lit

	// pathVars tracks the variables mentioned by the current path's asserted
	// and queried expressions — exactly the set a fresh per-path Blaster
	// would have registered, which is what CanonicalModel must cover.
	pathVars map[string][]sat.Lit

	// lits, order and names are scratch buffers every solve reuses.
	lits  []sat.Lit
	order []sat.Lit
	names []string

	// ConstraintsNew / ConstraintsReused count conjunct encodings performed
	// vs served from the activation cache; AssumptionSolves counts
	// satisfiability decisions (SolveAssuming and CanonicalModel calls,
	// one solve each). The engine and the solver façade aggregate
	// these into solver.Stats.
	ConstraintsNew    int64
	ConstraintsReused int64
	AssumptionSolves  int64
}

// NewSession creates a Session over a fresh Blaster.
func NewSession() *Session {
	return &Session{
		b:        New(),
		acts:     make(map[*sym.Expr]sat.Lit),
		actHash:  make(map[uint64]*sym.Expr),
		varsOf:   make(map[*sym.Expr][]varRef),
		pathVars: make(map[string][]sat.Lit),
	}
}

// varRef names one bitvector variable an expression mentions.
type varRef struct {
	name string
	w    int
}

// Reset begins a new path: the assumption stack and the path's variable set
// are cleared, while the encoded constraint cache, learned clauses, and
// search heuristics persist.
func (s *Session) Reset() {
	s.stack = s.stack[:0]
	clear(s.pathVars)
}

// Encoded returns the CNF clauses and auxiliary variables the session has
// added so far, over every query it served.
func (s *Session) Encoded() (clauses, aux int) { return s.b.Clauses, s.b.Aux }

// touchVars registers e's named variables in the underlying blaster (fixing
// canonical indices on first use, like Blaster.reserveVars) and records them
// as part of the current path.
func (s *Session) touchVars(e *sym.Expr) {
	refs, ok := s.varsOf[e]
	if !ok {
		seen := make(map[*sym.Expr]bool)
		named := make(map[string]bool)
		var walk func(*sym.Expr)
		walk = func(n *sym.Expr) {
			if seen[n] {
				return
			}
			seen[n] = true
			if n.Op == sym.OpVar {
				if !named[n.Name] {
					named[n.Name] = true
					refs = append(refs, varRef{n.Name, n.Width()})
				}
				return
			}
			for _, k := range n.Kids {
				walk(k)
			}
		}
		walk(e)
		s.varsOf[e] = refs
	}
	for _, r := range refs {
		if _, ok := s.pathVars[r.name]; !ok {
			s.pathVars[r.name] = s.b.VarBits(r.name, r.w)
		}
	}
}

// Assert adds the boolean expression e to the current path's constraints.
// Top-level conjunctions decompose into independently guarded conjuncts,
// mirroring Blaster.Assert's clause shapes.
func (s *Session) Assert(e *sym.Expr) {
	if !e.IsBool() {
		panic("bitblast: Assert requires a boolean expression")
	}
	s.assert(e)
}

func (s *Session) assert(e *sym.Expr) {
	if e.Op == sym.OpLAnd {
		for _, k := range e.Kids {
			s.assert(k)
		}
		return
	}
	s.touchVars(e)
	s.stack = append(s.stack, s.actFor(e))
}

// actFor returns the activation literal guarding conjunct e, encoding e on
// first sight. Constant conjuncts need no guard: their literal doubles as
// the assumption (assuming true is free; assuming false makes every solve
// on the path correctly unsatisfiable without touching the database).
func (s *Session) actFor(e *sym.Expr) sat.Lit {
	if a, ok := s.acts[e]; ok {
		s.ConstraintsReused++
		MConstraintsReused.Inc()
		return a
	}
	if prev, ok := s.actHash[e.Hash()]; ok && sym.Equal(prev, e) {
		// Structurally equal twin that escaped interning: reuse its guard.
		a := s.acts[prev]
		s.acts[e] = a
		s.ConstraintsReused++
		MConstraintsReused.Inc()
		return a
	}
	s.ConstraintsNew++
	lit := s.b.enc1(e)
	var a sat.Lit
	if lit == s.b.constLit(true) || lit == s.b.constLit(false) {
		a = lit
	} else {
		a = s.b.newLit()
		s.b.addClause(a.Not(), lit)
	}
	s.acts[e] = a
	if _, ok := s.actHash[e.Hash()]; !ok {
		s.actHash[e.Hash()] = e
	}
	return a
}

// solve runs one satisfiability decision under the current stack plus extra
// literals, deciding pref first (see sat.SolvePreferring), with the
// session's liveness check.
func (s *Session) solve(extra, pref []sat.Lit) bool {
	s.AssumptionSolves++
	MAssumptionSolves.Inc()
	MAssumptionDepth.Observe(int64(len(s.stack)))
	s.lits = append(append(s.lits[:0], s.stack...), extra...)
	start := time.Now()
	ok := s.b.S.SolvePreferring(s.lits, pref)
	MSolveLatency.ObserveSince(start)
	if !ok && !s.b.S.Okay() {
		panic("bitblast: incremental session database became unsatisfiable (engine bug)")
	}
	return ok
}

// SolveAssuming decides satisfiability of the current path's constraints
// plus extra assumption expressions, without asserting them.
func (s *Session) SolveAssuming(es ...*sym.Expr) bool {
	extra := make([]sat.Lit, len(es))
	for i, e := range es {
		s.touchVars(e)
		extra[i] = s.b.enc1(e)
	}
	return s.solve(extra, nil)
}

// Witness returns the last satisfiable solve's model over every variable
// the current path mentioned (asserted or queried). It satisfies the path's
// constraints and the extra assumptions of that solve, and it is only
// meaningful right after a solve that reported true. Unlike CanonicalModel
// it costs no solve, and its values depend on the search history.
func (s *Session) Witness() sym.Assignment { return modelOf(s.b.S, s.pathVars) }

// CanonicalModel decides the current path's constraints and returns their
// canonical witness over every variable the path mentioned, reporting false
// (and no model) when they are unsatisfiable. It is one solve under the
// activation stack, with the same semantics (and bytes) as
// Blaster.CanonicalModel on a fresh per-path blaster.
func (s *Session) CanonicalModel() (sym.Assignment, bool) {
	s.order, s.names = canonicalOrder(s.order[:0], s.names[:0], s.pathVars)
	if !s.solve(nil, s.order) {
		return nil, false
	}
	return modelOf(s.b.S, s.pathVars), true
}
