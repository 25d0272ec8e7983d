package bitblast

import (
	"sort"
	"time"

	"github.com/soft-testing/soft/internal/sat"
	"github.com/soft-testing/soft/internal/sym"
)

// Session is an incremental Blaster for exploring a path tree: one SAT core
// and one encoding memo persist across many path attempts, with each path's
// constraints activated through assumption literals instead of being
// re-blasted and re-asserted from scratch (the MiniSat solve-with-assumptions
// idiom).
//
// Every asserted conjunct c is encoded once, guarded by a fresh activation
// variable a_c via the clause (¬a_c ∨ lit(c)), and cached. Asserting c on a
// later path just pushes a_c onto the session's assumption stack; solving a
// path is one Solve(a_1..a_k, extras...) call. Sibling paths in the decision
// tree — which share their whole constraint prefix — therefore share CNF,
// learned clauses, and VSIDS activity, which is where the paths/sec win
// comes from.
//
// Answer preservation: assumptions are exact (sat.Solver decides the same
// formula a fresh solver would), learned clauses are resolvents of database
// clauses only (never of assumptions), and witness extraction minimizes the
// model per CanonicalModel's semantics, so a Session returns bit-for-bit the
// answers and canonical models a fresh Blaster per path returns. The
// determinism sweep tests in internal/symexec pin this.
//
// The guarded clause database is satisfiable by construction (every guard is
// satisfied by setting its activation variable false, and Tseitin
// definitions are functional), so the underlying solver can never become
// unconditionally unsatisfiable; Session panics if it does, as that would
// silently poison every later path.
//
// A Session is not safe for concurrent use: the engine creates one per
// worker.
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
	// would have registered, which is what Model/CanonicalModel must cover.
	pathVars map[string][]sat.Lit

	// ConstraintsNew / ConstraintsReused count conjunct encodings performed
	// vs served from the activation cache; AssumptionSolves counts
	// engine-level satisfiability decisions. The engine aggregates these
	// into solver.Stats.
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
	s.pathVars = make(map[string][]sat.Lit)
}

// StackLen returns the number of activation literals currently assumed.
func (s *Session) StackLen() int { return len(s.stack) }

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
// literals, with the session's liveness check.
func (s *Session) solve(extra ...sat.Lit) bool {
	s.AssumptionSolves++
	MAssumptionSolves.Inc()
	MAssumptionDepth.Observe(int64(len(s.stack)))
	lits := make([]sat.Lit, 0, len(s.stack)+len(extra))
	lits = append(lits, s.stack...)
	lits = append(lits, extra...)
	start := time.Now()
	ok := s.b.S.Solve(lits...)
	MSolveLatency.ObserveSince(start)
	if !ok && !s.b.S.Okay() {
		panic("bitblast: incremental session database became unsatisfiable (engine bug)")
	}
	return ok
}

// Solve decides satisfiability of the current path's constraints.
func (s *Session) Solve() bool { return s.solve() }

// SolveAssuming decides satisfiability of the current path's constraints
// plus extra assumption expressions, without asserting them.
func (s *Session) SolveAssuming(es ...*sym.Expr) bool {
	extra := make([]sat.Lit, len(es))
	for i, e := range es {
		s.touchVars(e)
		extra[i] = s.b.enc1(e)
	}
	return s.solve(extra...)
}

// Model extracts the assignment of every variable the current path
// mentioned. Must be called only after a satisfiable Solve.
func (s *Session) Model() sym.Assignment {
	m := make(sym.Assignment, len(s.pathVars))
	for name, bits := range s.pathVars {
		var v uint64
		for i, l := range bits {
			bit := s.b.S.Value(l.Var())
			if l.Neg() {
				bit = !bit
			}
			if bit {
				v |= 1 << i
			}
		}
		m[name] = v
	}
	return m
}

// CanonicalModel extracts the canonical witness of the current path's
// constraints: identical semantics (and bytes) to Blaster.CanonicalModel on
// a fresh per-path blaster, restricted to the path's variables and with the
// activation stack included in every minimization probe. Must be called
// immediately after a successful Solve.
func (s *Session) CanonicalModel() sym.Assignment {
	names := make([]string, 0, len(s.pathVars))
	for n := range s.pathVars {
		names = append(names, n)
	}
	sort.Strings(names)
	// Same invariant as Blaster.CanonicalModel: the solver's last model
	// satisfies the stack and every literal in fixed, a failed probe leaves
	// that model in place, so each bit costs at most one solve.
	fixed := make([]sat.Lit, len(s.stack), len(s.stack)+8)
	copy(fixed, s.stack)
	for _, n := range names {
		bits := s.pathVars[n]
		for i := len(bits) - 1; i >= 0; i-- {
			l := bits[i]
			if s.b.S.Value(l.Var()) == l.Neg() { // current model reads 0
				fixed = append(fixed, l.Not())
				continue
			}
			fixed = append(fixed, l.Not())
			if !s.b.S.Solve(fixed...) {
				fixed[len(fixed)-1] = l
			}
		}
	}
	return s.Model()
}
