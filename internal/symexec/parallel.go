package symexec

import (
	"context"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"github.com/soft-testing/soft/internal/bitblast"
	"github.com/soft-testing/soft/internal/coverage"
	"github.com/soft-testing/soft/internal/obs"
	"github.com/soft-testing/soft/internal/sym"
)

// Work-stealing metrics: how often workers donate to and steal from the
// global pool, and the per-worker local-frontier depth sampled at each
// pop. Observation only — the balancing heuristics never read these.
var (
	mDonations     = obs.NewCounter("soft_explore_donations_total")
	mSteals        = obs.NewCounter("soft_explore_steals_total")
	mFrontierDepth = obs.NewHistogram("soft_explore_frontier_depth")
)

// frontier is the shared work pool of the parallel engine. Workers keep
// their own local frontiers in the interleaved order and touch this
// structure only to donate work when someone is starving, to steal when
// their local frontier runs dry, and to detect global termination — so the
// hot path (execute path, fork locally) takes no locks.
type frontier struct {
	mu     sync.Mutex
	cond   *sync.Cond
	global []*workItem
	idle   int // workers currently blocked in steal
	n      int // total workers

	// idleCount mirrors idle for lock-free reads on the fork hot path.
	idleCount atomic.Int32
	// done is set when exploration must stop: either every worker is idle
	// with no work anywhere, or a path cap fired.
	done atomic.Bool
	// exhausted is set only on natural termination (every worker idle, no
	// work left): it distinguishes a finished run from a halted one when a
	// late context cancellation races with the end of exploration.
	exhausted atomic.Bool
}

func newFrontier(workers int) *frontier {
	f := &frontier{n: workers}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// donate publishes a work item to the global pool and wakes one idle worker.
func (f *frontier) donate(it *workItem) {
	f.mu.Lock()
	f.global = append(f.global, it)
	f.mu.Unlock()
	f.cond.Signal()
	mDonations.Inc()
}

// steal blocks until a global work item is available or exploration is
// finished. The second return is false on termination.
func (f *frontier) steal() (*workItem, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.idle++
	f.idleCount.Store(int32(f.idle))
	defer func() {
		f.idle--
		f.idleCount.Store(int32(f.idle))
	}()
	for {
		if f.done.Load() {
			return nil, false
		}
		if n := len(f.global); n > 0 {
			it := f.global[n-1]
			f.global[n-1] = nil
			f.global = f.global[:n-1]
			mSteals.Inc()
			return it, true
		}
		if f.idle == f.n {
			// Every worker is here and the pool is empty: local frontiers
			// are empty too (a worker only steals when drained), so the
			// execution tree is exhausted.
			f.exhausted.Store(true)
			f.done.Store(true)
			f.cond.Broadcast()
			return nil, false
		}
		f.cond.Wait()
	}
}

// halt stops all workers (when MaxPaths fires, the run's context is done,
// or a worker panicked). The store happens under f.mu: a worker that
// observed done == false inside steal holds the mutex until its Wait
// enqueues it, so the Broadcast that follows cannot be lost between the
// check and the sleep.
func (f *frontier) halt() {
	f.mu.Lock()
	f.done.Store(true)
	f.mu.Unlock()
	f.cond.Broadcast()
}

// remaining returns the number of undonated items left in the global pool.
func (f *frontier) remaining() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.global)
}

// workerState accumulates one worker's private results; merged after join.
type workerState struct {
	paths      []*Path
	infeasible int
	depthTrunc int
	counters   pathCounters
	sess       *bitblast.Session // persistent incremental session
	inputs     map[string]*sym.Expr
	cov        *coverage.Set // worker-cumulative; feeds coverage-optimized pops
}

// run explores h with the given number of workers over a shared
// work-stealing frontier; one worker is simply the degenerate case. Workers
// own every piece of hot-path state — the local frontier in the interleaved
// order (worker w's random picks follow workerSeed(1, w)), the per-path
// constraint encodings, the branch-query counter — and synchronize only to
// balance work. The root seeds worker 0's local frontier, so a one-worker
// run pops exactly newInterleaved(1)'s order. The merged result is
// canonicalized by the caller, so exhaustive runs produce the same Result
// at every worker count.
//
// Each worker checks the run's context before every pop: on cancellation
// it halts the frontier, which wakes blocked stealers and makes every
// worker exit at its next loop check. Paths already completed are kept, so
// a cancelled run returns the partial set explored so far, and a context
// that is already done explores nothing.
//
// A panic on a worker takes the same halt path: the worker records the
// first *pathPanic, halts the frontier, and exits; once every worker has
// stopped, the panic is re-raised here, on the caller's goroutine, where
// it can be recovered (a panic escaping a worker goroutine would kill the
// process).
func (e *Engine) run(cancel context.Context, h Handler, workers int, res *Result) {
	f := newFrontier(workers)

	cut := e.newCanonCut()
	maxPaths := int64(e.MaxPaths)
	if cut != nil {
		// Canonical truncation never halts early on a path count: the kept
		// set converges to the MaxPaths canonically smallest paths and
		// termination comes from subtree pruning plus frontier exhaustion.
		maxPaths = 0
	}
	var completed, dropped, leftover, progressDone atomic.Int64
	var cancelled atomic.Bool
	var failure atomic.Pointer[pathPanic]

	states := make([]*workerState, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		ws := &workerState{inputs: make(map[string]*sym.Expr), sess: bitblast.NewSession()}
		if e.CovMap != nil {
			ws.cov = e.CovMap.NewSet()
		}
		states[w] = ws
		local := newInterleaved(workerSeed(1, w))
		if w == 0 {
			local.Push(e.rootItem())
		}

		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { leftover.Add(int64(local.Len())) }()
			defer func() {
				if r := recover(); r != nil {
					p, ok := r.(*pathPanic)
					if !ok {
						// Outside runOne (frontier or callback code).
						p = &pathPanic{value: r, stack: debug.Stack()}
					}
					failure.CompareAndSwap(nil, p)
					f.halt()
				}
			}()
			enqueue := func(it *workItem) {
				switch {
				case e.ShardSink != nil && len(it.decisions) > e.ShardDepth:
					// A ShardSink run has one worker, so the sink needs no
					// locking.
					e.ShardSink(it.decisions)
				case f.idleCount.Load() > 0:
					// Forks stay local unless someone is starving; donation
					// is a heuristic, so a stale idleCount read is harmless.
					f.donate(it)
				default:
					local.Push(it)
				}
			}
			for {
				if f.done.Load() {
					return
				}
				if cancel.Err() != nil {
					cancelled.Store(true)
					f.halt()
					return
				}
				// Rebalance: if workers sit idle while this local frontier
				// holds a backlog, hand half of it over.
				if f.idleCount.Load() > 0 {
					for i := local.Len() / 2; i > 0; i-- {
						it, ok := local.Pop(ws.cov)
						if !ok {
							break
						}
						f.donate(it)
					}
				}
				mFrontierDepth.Observe(int64(local.Len()))
				it, ok := local.Pop(ws.cov)
				if !ok {
					if it, ok = f.steal(); !ok {
						return
					}
				}
				if cut != nil && cut.prune(it.decisions) {
					continue
				}
				ctx := e.newContext(it, enqueue, &ws.counters, ws.sess)
				outcome := runOne(ctx, h)
				for name, v := range ctx.inputs {
					ws.inputs[name] = v
				}
				switch outcome {
				case pathCompleted, pathCrashed:
					if maxPaths > 0 {
						n := completed.Add(1)
						if n > maxPaths {
							// Another worker filled the cap while this path
							// was in flight; keep exactly MaxPaths paths.
							dropped.Add(1)
							f.halt()
							continue
						}
						if n == maxPaths {
							f.halt()
						}
					}
					if p := e.completePath(ctx); cut != nil {
						cut.admit(p)
					} else {
						ws.paths = append(ws.paths, p)
					}
					if ws.cov != nil {
						ws.cov.Merge(ctx.cov)
					}
					if e.Progress != nil {
						n := progressDone.Add(1)
						if cut != nil {
							// The cut keeps at most MaxPaths of the paths
							// completed so far.
							n = min(n, int64(e.MaxPaths))
						}
						e.Progress(int(n))
					}
				case pathInfeasible:
					ws.infeasible++
				case pathDepthTruncated:
					ws.depthTrunc++
					if ws.cov != nil {
						ws.cov.Merge(ctx.cov)
					}
				}
			}
		}()
	}
	wg.Wait()
	if p := failure.Load(); p != nil {
		panic(p)
	}

	for _, ws := range states {
		res.Paths = append(res.Paths, ws.paths...)
		res.Infeasible += ws.infeasible
		res.DepthTruncated += ws.depthTrunc
		addSolveCounters(res, &ws.counters, ws.sess)
		for name, v := range ws.inputs {
			res.Inputs[name] = v
		}
		if res.Cov != nil {
			res.Cov.Merge(ws.cov)
		}
	}
	// Truncated: the cap fired while unexplored work remained (a
	// finished-in-flight path was dropped, or frontiers still held items).
	if maxPaths > 0 && completed.Load() >= maxPaths &&
		(dropped.Load() > 0 || leftover.Load() > 0 || f.remaining() > 0) {
		res.PathsTruncated = true
	}
	if cancelled.Load() && !f.exhausted.Load() {
		res.Cancelled = true
	}
	e.applyCanonCut(cut, res)
}
