// Package solver is the constraint-solving façade used by the rest of SOFT:
// satisfiability checking and model (test case) extraction over sym
// expressions. It wraps the bit-blasting encoder and the CDCL SAT core —
// the reproduction's substitute for STP — and adds what the SOFT pipeline
// needs around a raw decision procedure: a constant fast path (the sym
// constructors fold as they build, so a decided query arrives as true or
// false), incremental solving through caller-owned bitblast sessions (crosschecking
// asks each group condition in many queries; a worker's session encodes it
// once), a sharded query cache keyed by the query's structure
// (crosschecking may issue structurally equal queries, often from many
// workers at once), and per-query statistics matching what the paper's
// evaluation reports.
package solver

import (
	"slices"
	"sync"
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
	mCacheHits    = obs.NewCounter("soft_solver_cache_hits_total")
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
	Queries      int64
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
	// re-bitblasted. Every query that misses the cache and the fast path is
	// one assumption solve; for an exploration the harness fills both from
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
	s.CacheHits += other.CacheHits
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

// Sub returns the difference s - earlier (a per-stage delta of cumulative
// snapshots).
func (s Stats) Sub(earlier Stats) Stats {
	return Stats{
		Queries:       s.Queries - earlier.Queries,
		CacheHits:     s.CacheHits - earlier.CacheHits,
		SatQueries:    s.SatQueries - earlier.SatQueries,
		UnsatQueries:  s.UnsatQueries - earlier.UnsatQueries,
		SolveTime:     s.SolveTime - earlier.SolveTime,
		MaxQuerySize:  s.MaxQuerySize,
		ClausesTotal:  s.ClausesTotal - earlier.ClausesTotal,
		AuxVarsTotal:  s.AuxVarsTotal - earlier.AuxVarsTotal,
		FastPathConst: s.FastPathConst - earlier.FastPathConst,

		AssumptionSolves:  s.AssumptionSolves - earlier.AssumptionSolves,
		ConstraintsReused: s.ConstraintsReused - earlier.ConstraintsReused,
		InternHits:        s.InternHits - earlier.InternHits,
	}
}

// cacheEntry is a single-flight cache slot for the query key:
// the first goroutine to claim a key solves it and closes done; later
// goroutines for a structurally equal key block on done instead of
// duplicating the solve. failed marks an entry whose solve panicked —
// waiters treat it as a miss instead of reading bogus zero values (and
// instead of blocking forever on a never-closed channel).
type cacheEntry struct {
	key    *sym.Expr
	done   chan struct{}
	failed bool
	res    Result
	model  sym.Assignment
}

// numShards is the cache fan-out. Queries pick a shard by their structural
// hash, so concurrent crosscheck workers contend only when they touch the
// same 1/16th of the key space.
const numShards = 16

// shard is one cache partition. live maps a structural hash to the entries
// of the distinct queries sharing it (almost always one); sym.Equal picks
// the entry whose key matches.
type shard struct {
	mu   sync.Mutex
	live map[uint64][]*cacheEntry
}

// lookup returns the entry whose key is structurally equal to e, or nil.
// The caller holds sh.mu.
func (sh *shard) lookup(e *sym.Expr) *cacheEntry {
	for _, ent := range sh.live[e.Hash()] {
		if sym.Equal(ent.key, e) {
			return ent
		}
	}
	return nil
}

// evict drops ent from its hash list. The caller holds sh.mu.
func (sh *shard) evict(ent *cacheEntry) {
	h := ent.key.Hash()
	sh.live[h] = slices.DeleteFunc(sh.live[h], func(x *cacheEntry) bool { return x == ent })
	if len(sh.live[h]) == 0 {
		delete(sh.live, h)
	}
}

// Solver answers satisfiability queries.
//
// Concurrency: a Solver is safe for concurrent use — a query solves on the
// caller's own session (CheckIn; each crosscheck worker owns one) or on a
// throwaway one (Check), never on state other goroutines touch; the cache
// is sharded 16 ways and each shard's lock is held only around map access,
// never during solving.
// Concurrent structurally equal queries are deduplicated (single-flight):
// one goroutine solves, the others reuse its result and count a cache hit,
// which keeps CacheHits accounting exact under any interleaving. Statistics
// are atomic counters. Results are deterministic — the same query always
// yields the same answer and the same canonical model, cached or not.
type Solver struct {
	shards [numShards]shard

	// DisableCache turns off result caching (ablation: Table 5 companion
	// bench BenchmarkAblationSolver).
	DisableCache bool

	queries       atomic.Int64
	cacheHits     atomic.Int64
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

// New returns a Solver with caching enabled.
func New() *Solver {
	s := &Solver{}
	for i := range s.shards {
		s.shards[i].live = make(map[uint64][]*cacheEntry)
	}
	return s
}

// Stats returns a snapshot of the accumulated statistics.
func (s *Solver) Stats() Stats {
	return Stats{
		Queries:       s.queries.Load(),
		CacheHits:     s.cacheHits.Load(),
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

// ResetStats zeroes the accumulated statistics (the cache is kept).
func (s *Solver) ResetStats() {
	s.queries.Store(0)
	s.cacheHits.Store(0)
	s.satQueries.Store(0)
	s.unsatQueries.Store(0)
	s.solveNanos.Store(0)
	s.maxQuerySize.Store(0)
	s.clausesTotal.Store(0)
	s.auxVarsTotal.Store(0)
	s.fastPathConst.Store(0)
	s.assumptionSolves.Store(0)
	s.constraintsReused.Store(0)
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
// same query yields the same model whatever solved it first. Evaluating the
// constraints under the model yields true (the soundness property
// TestModelsSatisfy verifies).
func (s *Solver) Check(constraints ...*sym.Expr) (Result, sym.Assignment) {
	return s.CheckIn(nil, constraints...)
}

// CheckIn is Check solved on sess, an incremental session the caller owns
// and must not use concurrently (nil solves on a throwaway one). On a cache
// miss the query's conjuncts are asserted behind activation literals, so a
// conjunct sess encoded for an earlier query is reused, not re-encoded, and
// the query is one solve under assumptions. The answer and the canonical
// model are the same whatever session solves the query.
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

	if s.DisableCache {
		res, model := s.solve(sess, e)
		s.noteResult(res)
		return res, cloneModel(model)
	}

	sh := &s.shards[e.Hash()%numShards]
	sh.mu.Lock()
	if ent := sh.lookup(e); ent != nil {
		sh.mu.Unlock()
		<-ent.done // single-flight: wait out an in-progress solve
		if !ent.failed {
			s.cacheHits.Add(1)
			mCacheHits.Inc()
			s.noteResult(ent.res)
			return ent.res, cloneModel(ent.model)
		}
		// The claimant panicked (e.g. a malformed query). Solve uncached:
		// a query that panics does so for every caller, and the panic must
		// surface here too rather than hang or alias a zero result.
		res, model := s.solve(sess, e)
		s.noteResult(res)
		return res, cloneModel(model)
	}
	ent := &cacheEntry{key: e, done: make(chan struct{})}
	sh.live[e.Hash()] = append(sh.live[e.Hash()], ent)
	sh.mu.Unlock()

	done := false
	defer func() {
		if !done {
			// Panicking out of solve: poison the entry, evict it so future
			// Checks retry, and release the waiters before unwinding.
			ent.failed = true
			sh.mu.Lock()
			sh.evict(ent)
			sh.mu.Unlock()
			close(ent.done)
		}
	}()
	ent.res, ent.model = s.solve(sess, e)
	done = true
	close(ent.done)
	s.noteResult(ent.res)
	return ent.res, cloneModel(ent.model)
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

func cloneModel(m sym.Assignment) sym.Assignment {
	if m == nil {
		return nil
	}
	out := make(sym.Assignment, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
