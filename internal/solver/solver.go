// Package solver is the constraint-solving façade used by the rest of SOFT:
// satisfiability checking and model (test case) extraction over sym
// expressions. It wraps the bit-blasting encoder and the CDCL SAT core —
// the reproduction's substitute for STP — and adds what the SOFT pipeline
// needs around a raw decision procedure: a constant fast path (the sym
// constructors fold as they build, so a decided query arrives as true or
// false), incremental solving through caller-owned bitblast sessions (crosschecking
// asks each group condition in many queries; a worker's session encodes it
// once), and per-query statistics matching what the paper's evaluation
// reports.
//
// There is no query cache: the crosscheck asks one query per differing
// group pair, and no two pairs ask the same query, so a cache keyed by the
// query's structure never hits on any workload.
package solver

import (
	"sync/atomic"
	"time"

	"github.com/soft-testing/soft/internal/bitblast"
	"github.com/soft-testing/soft/internal/obs"
	"github.com/soft-testing/soft/internal/sym"
)

// Façade-level metrics, process-global across every Solver instance (the
// per-instance atomic counters below remain the per-stage accounting the
// reports use). Observation only — see internal/obs doc.go.
var (
	mQueries      = obs.NewCounter("soft_solver_queries_total")
	mSolveLatency = obs.NewHistogram("soft_solver_solve_latency_ns")
)

// Result is the outcome of a satisfiability query.
type Result int8

// Query outcomes.
const (
	Unsat Result = iota
	Sat
)

func (r Result) String() string {
	if r == Sat {
		return "sat"
	}
	return "unsat"
}

// Stats aggregates solver work across queries.
type Stats struct {
	Queries int64
	// CacheHits is always 0: the solver has no query cache. The field stays
	// because the benchmark's solver.cache_hits metric and the fleet wire
	// format still carry it.
	CacheHits    int64
	SatQueries   int64
	UnsatQueries int64
	SolveTime    time.Duration
	MaxQuerySize int64 // largest constraint (boolean operation count)
	// ClausesTotal and AuxVarsTotal count the CNF clauses and auxiliary
	// variables the queries' encodings actually added: a conjunct a session
	// had already encoded for an earlier query adds nothing.
	ClausesTotal  int64
	AuxVarsTotal  int64
	FastPathConst int64 // queries the constructors folded to a constant
	// AssumptionSolves counts satisfiability decisions served by an
	// assumption-stack session, and ConstraintsReused counts conjuncts
	// served from a session's activation cache instead of being
	// re-bitblasted. Every query the fast path does not decide is one
	// assumption solve; for an exploration the harness fills both from
	// the engine's run.
	// InternHits counts expression constructions answered by the hash-cons
	// table (process-wide, windowed to an exploration run).
	AssumptionSolves  int64
	ConstraintsReused int64
	InternHits        int64
}

// Add accumulates other into s (used to merge per-worker solver stats).
func (s *Stats) Add(other Stats) {
	s.Queries += other.Queries
	s.SatQueries += other.SatQueries
	s.UnsatQueries += other.UnsatQueries
	s.SolveTime += other.SolveTime
	if other.MaxQuerySize > s.MaxQuerySize {
		s.MaxQuerySize = other.MaxQuerySize
	}
	s.ClausesTotal += other.ClausesTotal
	s.AuxVarsTotal += other.AuxVarsTotal
	s.FastPathConst += other.FastPathConst
	s.AssumptionSolves += other.AssumptionSolves
	s.ConstraintsReused += other.ConstraintsReused
	s.InternHits += other.InternHits
}

// Solver answers satisfiability queries.
//
// Concurrency: a Solver is safe for concurrent use — a query solves on the
// caller's own session (CheckIn; each crosscheck worker owns one) or on a
// throwaway one (Check), never on state other goroutines touch. Statistics
// are atomic counters. Results are deterministic — the same query always
// yields the same answer and the same canonical model, whatever session
// solves it.
type Solver struct {
	queries       atomic.Int64
	satQueries    atomic.Int64
	unsatQueries  atomic.Int64
	solveNanos    atomic.Int64
	maxQuerySize  atomic.Int64
	clausesTotal  atomic.Int64
	auxVarsTotal  atomic.Int64
	fastPathConst atomic.Int64

	assumptionSolves  atomic.Int64
	constraintsReused atomic.Int64
}

// New returns a Solver with zeroed statistics.
func New() *Solver { return &Solver{} }

// Stats returns a snapshot of the accumulated statistics.
func (s *Solver) Stats() Stats {
	return Stats{
		Queries:       s.queries.Load(),
		SatQueries:    s.satQueries.Load(),
		UnsatQueries:  s.unsatQueries.Load(),
		SolveTime:     time.Duration(s.solveNanos.Load()),
		MaxQuerySize:  s.maxQuerySize.Load(),
		ClausesTotal:  s.clausesTotal.Load(),
		AuxVarsTotal:  s.auxVarsTotal.Load(),
		FastPathConst: s.fastPathConst.Load(),

		AssumptionSolves:  s.assumptionSolves.Load(),
		ConstraintsReused: s.constraintsReused.Load(),
	}
}

func (s *Solver) noteResult(r Result) {
	if r == Sat {
		s.satQueries.Add(1)
	} else {
		s.unsatQueries.Add(1)
	}
}

func (s *Solver) bumpMaxQuery(sz int64) {
	for {
		cur := s.maxQuerySize.Load()
		if sz <= cur || s.maxQuerySize.CompareAndSwap(cur, sz) {
			return
		}
	}
}

// Check decides satisfiability of the conjunction of the given boolean
// expressions. When satisfiable it returns the canonical model: a witness
// assigning every variable that occurs in the constraints, minimized so the
// same query yields the same model whatever session solves it. Evaluating the
// constraints under the model yields true (the soundness property
// TestModelsSatisfy verifies).
func (s *Solver) Check(constraints ...*sym.Expr) (Result, sym.Assignment) {
	return s.CheckIn(nil, constraints...)
}

// CheckIn is Check solved on sess, an incremental session the caller owns
// and must not use concurrently (nil solves on a throwaway one). The query's
// conjuncts are asserted behind activation literals, so a conjunct sess
// encoded for an earlier query is reused, not re-encoded, and the query is
// one solve under assumptions. The answer and the canonical model are the
// same whatever session solves the query, and the model is a fresh map the
// caller may keep or modify.
func (s *Solver) CheckIn(sess *bitblast.Session, constraints ...*sym.Expr) (Result, sym.Assignment) {
	e := sym.LAnd(constraints...)

	s.queries.Add(1)
	mQueries.Inc()
	s.bumpMaxQuery(int64(e.Size()))

	// Fast path: the constructors' folding decided the query.
	if e.IsTrue() {
		s.fastPathConst.Add(1)
		s.satQueries.Add(1)
		return Sat, sym.Assignment{}
	}
	if e.IsFalse() {
		s.fastPathConst.Add(1)
		s.unsatQueries.Add(1)
		return Unsat, nil
	}

	res, model := s.solve(sess, e)
	s.noteResult(res)
	return res, model
}

// solve runs the bitblast + CDCL decision procedure for one query on sess
// (nil: a throwaway session) and accounts the session work it caused.
func (s *Solver) solve(sess *bitblast.Session, e *sym.Expr) (Result, sym.Assignment) {
	if sess == nil {
		sess = bitblast.NewSession()
	}
	start := time.Now()
	clauses, aux := sess.Encoded()
	solves, reused := sess.AssumptionSolves, sess.ConstraintsReused
	sess.Reset()
	sess.Assert(e)

	res := Unsat
	model, ok := sess.CanonicalModel()
	if ok {
		res = Sat
	}
	elapsed := time.Since(start)
	s.solveNanos.Add(int64(elapsed))
	mSolveLatency.Observe(int64(elapsed))
	clausesAfter, auxAfter := sess.Encoded()
	s.clausesTotal.Add(int64(clausesAfter - clauses))
	s.auxVarsTotal.Add(int64(auxAfter - aux))
	s.assumptionSolves.Add(sess.AssumptionSolves - solves)
	s.constraintsReused.Add(sess.ConstraintsReused - reused)
	return res, model
}

// Sat reports whether the conjunction of the constraints is satisfiable.
func (s *Solver) Sat(constraints ...*sym.Expr) bool {
	r, _ := s.Check(constraints...)
	return r == Sat
}
