package symexec

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"github.com/soft-testing/soft/internal/bitblast"
	"github.com/soft-testing/soft/internal/coverage"
	"github.com/soft-testing/soft/internal/sym"
)

// Handler is the program under test: a deterministic function of the
// symbolic inputs it creates via Context.NewSym and the decisions returned
// by Context.Branch.
type Handler func(ctx *Context)

// abortKind is carried by the sentinel panic that unwinds a path early.
type abortKind int

const (
	abortCrash abortKind = iota
	abortInfeasible
	abortDepth
)

type abortPanic struct {
	kind abortKind
	msg  string
}

// pathCounters accumulates one worker's solver-facing counters. Owned by
// the executing worker; no atomics needed.
type pathCounters struct {
	branchQueries int64
}

// Context is the per-path execution context handed to the Handler. It is
// valid only for the duration of one handler invocation. A Context holds no
// reference to locked engine state: forks go through the enqueue callback
// and feasibility queries run against the worker-private session, so
// parallel workers execute paths without locking on the hot path.
type Context struct {
	maxDepth  int
	enqueue   func(*workItem)
	counters  *pathCounters
	sess      *bitblast.Session // the worker's session, reset for this path
	decisions []bool            // prescribed prefix (replay), then grown by new decisions
	w         sym.Assignment    // satisfies pc, or nil when unknown (see BranchSite)
	ev        sym.Evaluator
	sites     []coverage.BranchID
	depth     int // next decision index
	pc        []*sym.Expr
	outputs   []any
	cov       *coverage.Set
	inputs    map[string]*sym.Expr
	crashed   bool
	crashMsg  string
}

// NewSym creates (or returns, when re-executed) the symbolic input variable
// with the given name and width. Handlers must create inputs
// deterministically: the same names in the same order on every run.
func (c *Context) NewSym(name string, w int) *sym.Expr {
	if v, ok := c.inputs[name]; ok {
		if v.Width() != w {
			panic(fmt.Sprintf("symexec: input %q redeclared with width %d != %d", name, w, v.Width()))
		}
		return v
	}
	v := sym.Var(name, w)
	c.inputs[name] = v
	return v
}

// Inputs returns the symbolic input variables created so far, keyed by name.
func (c *Context) Inputs() map[string]*sym.Expr { return c.inputs }

// Emit records an output event on the current path (an OpenFlow message or
// data plane packet the agent sent, in SOFT's usage).
func (c *Context) Emit(ev any) { c.outputs = append(c.outputs, ev) }

// Cover marks a coverage block as executed on this path.
func (c *Context) Cover(b coverage.BlockID) {
	if c.cov != nil {
		c.cov.CoverBlock(b)
	}
}

// Crash aborts the current path, recording that the agent terminated
// abnormally (the paper's "OpenFlow agent terminates with an error" class of
// findings). The crash is externally observable behavior, so it becomes part
// of the path's result.
func (c *Context) Crash(msg string) {
	c.crashed = true
	c.crashMsg = msg
	panic(abortPanic{kind: abortCrash, msg: msg})
}

// Assume constrains the path without forking. The harness uses it to pin
// structured-input invariants (§3.2.1: concrete message type and length
// fields). If the assumption contradicts the path condition the path is
// abandoned as infeasible.
func (c *Context) Assume(cond *sym.Expr) {
	if cond.IsTrue() {
		return
	}
	if cond.IsFalse() {
		panic(abortPanic{kind: abortInfeasible, msg: "assumption is false"})
	}
	if !c.satisfied(cond) {
		ok, w := c.solve(cond)
		if !ok {
			panic(abortPanic{kind: abortInfeasible, msg: "assumption contradicts path condition"})
		}
		c.w = w
	}
	c.pc = append(c.pc, cond)
	c.sess.Assert(cond)
}

// Branch evaluates a two-way branch on cond. Concrete conditions do not
// fork. Symbolic conditions consult the decision prefix (replay) or the
// solver (exploration); when both arms are feasible the unexplored arm is
// enqueued with the engine's search strategy.
func (c *Context) Branch(cond *sym.Expr) bool {
	return c.BranchSite(-1, cond)
}

// BranchSite is Branch with a coverage branch site attached.
//
// A frontier branch (one past the replayed decision prefix) decides both
// arms' feasibility with one solve when the path's witness w is known. w is
// an assignment that satisfies the path condition: reading every variable
// it leaves unassigned as 0 (as sym.Eval does), every conjunct of pc
// evaluates to true. In that reading w is total, so it satisfies pc ∧ cond
// or pc ∧ ¬cond. The arm it satisfies is feasible without a solve, and only
// the other arm is solved; a sat answer's model, over every variable the
// path has mentioned, becomes that arm's witness, carried by the forked
// work item or kept by this path. w is empty at an unprefixed root (it
// satisfies the empty pc) and unknown (nil) at a shard's prefix root, where
// the first frontier branch falls back to solving both arms. No answer
// depends on which model w is: feasibility is a fact about the formula,
// not about the witness, and a path's canonical model comes from its own
// ordered solve.
func (c *Context) BranchSite(site coverage.BranchID, cond *sym.Expr) bool {
	if cond.IsTrue() || cond.IsFalse() {
		taken := cond.IsTrue()
		c.coverBranch(site, taken)
		return taken
	}

	idx := c.depth
	c.depth++
	if c.maxDepth > 0 && idx >= c.maxDepth {
		panic(abortPanic{kind: abortDepth, msg: "maximum branch depth exceeded"})
	}

	if idx < len(c.decisions) {
		// Replay: the prefix was checked feasible when enqueued.
		taken := c.decisions[idx]
		c.take(site, cond, taken)
		return taken
	}

	// Frontier: decide which arms are feasible. The path condition is
	// feasible, so at least one arm is.
	c.counters.branchQueries++
	satTrue, satFalse := true, true
	var wTrue, wFalse sym.Assignment
	switch {
	case c.w == nil:
		if satTrue, wTrue = c.solve(cond); satTrue {
			satFalse, wFalse = c.solve(sym.LNot(cond))
		}
	case c.satisfied(cond):
		wTrue = c.w
		satFalse, wFalse = c.solve(sym.LNot(cond))
	default:
		wFalse = c.w
		satTrue, wTrue = c.solve(cond)
	}

	switch {
	case satTrue && satFalse:
		// Fork: continue down true, enqueue false.
		alt := make([]bool, idx+1)
		copy(alt, c.decisions)
		alt[idx] = false
		c.enqueue(&workItem{decisions: alt, w: wFalse, site: site, dir: false})
		c.decisions = append(c.decisions, true)
		c.w = wTrue
		c.take(site, cond, true)
		return true
	case satTrue:
		c.decisions = append(c.decisions, true)
		c.w = wTrue
		c.take(site, cond, true)
		return true
	default:
		c.decisions = append(c.decisions, false)
		c.w = wFalse
		c.take(site, cond, false)
		return false
	}
}

// satisfied reports whether the path's witness is known and satisfies e.
func (c *Context) satisfied(e *sym.Expr) bool {
	return c.w != nil && c.ev.EvalBool(e, c.w)
}

// solve decides the path condition plus e, returning on sat the model as
// a witness for the path extended by e.
func (c *Context) solve(e *sym.Expr) (bool, sym.Assignment) {
	if !c.sess.SolveAssuming(e) {
		return false, nil
	}
	return true, c.sess.Witness()
}

// take commits a branch direction: extends the path condition, the
// incremental encoding, and coverage.
func (c *Context) take(site coverage.BranchID, cond *sym.Expr, taken bool) {
	eff := cond
	if !taken {
		eff = sym.LNot(cond)
	}
	c.pc = append(c.pc, eff)
	c.sess.Assert(eff)
	c.coverBranch(site, taken)
}

func (c *Context) coverBranch(site coverage.BranchID, taken bool) {
	if c.cov != nil && site >= 0 {
		c.cov.CoverBranch(site, taken)
	}
}

// PathCondition returns the conjunction of constraints accumulated so far.
func (c *Context) PathCondition() *sym.Expr { return sym.LAnd(c.pc...) }

// Path is one completed execution path.
type Path struct {
	// ID is the path's index in canonical decision-prefix order (see
	// Decisions): IDs are assigned after exploration by sorting the decision
	// vectors lexicographically (false < true), so the same handler always
	// yields the same IDs regardless of search strategy or worker count.
	ID       int
	PC       []*sym.Expr // conjuncts in branch order
	Outputs  []any
	Cov      *coverage.Set
	Crashed  bool
	CrashMsg string
	// Model is a concrete input satisfying PC (a ready-made test case),
	// populated when Engine.WantModels is set.
	Model sym.Assignment
	// Branches is the number of symbolic decisions on the path.
	Branches int
	// Decisions is the branch-decision vector identifying the path in the
	// execution tree. Completed paths are prefix-free, so the vector is a
	// unique canonical key.
	Decisions []bool
}

// Condition returns the path condition as a single expression.
func (p *Path) Condition() *sym.Expr { return sym.LAnd(p.PC...) }

// ConstraintSize returns the paper's Table 2 metric: the number of boolean
// operations in the path condition.
func (p *Path) ConstraintSize() int { return p.Condition().Size() }

// Result is the outcome of exploring a handler exhaustively (or up to the
// engine's limits). Paths are in canonical decision-prefix order, so for
// exhaustive runs the Result is identical whatever the search strategy or
// worker count.
type Result struct {
	Paths []*Path
	// Cov is cumulative coverage over all explored paths.
	Cov *coverage.Set
	// Inputs is the union of symbolic inputs the handler declared.
	Inputs map[string]*sym.Expr
	// Elapsed is wall-clock exploration time (the paper's "CPU time"
	// column; with Workers > 1 the CPU time is up to Workers × Elapsed).
	Elapsed time.Duration
	// Infeasible counts abandoned paths (contradictory Assume).
	Infeasible int
	// DepthTruncated counts paths cut by MaxDepth.
	DepthTruncated int
	// PathsTruncated reports whether exploration stopped early — MaxPaths
	// fired or the run's context was cancelled — so Paths is a partial set.
	PathsTruncated bool
	// Cancelled reports that the context passed to RunContext was cancelled
	// (or its deadline expired) before the execution tree was exhausted.
	Cancelled bool
	// BranchQueries counts frontier feasibility decisions.
	BranchQueries int64
	// AssumptionSolves counts satisfiability decisions served by the
	// workers' incremental sessions (assumption-stack solves).
	AssumptionSolves int64
	// ConstraintsReused counts path conjuncts served from a session's
	// already-encoded activation cache instead of being re-bitblasted.
	ConstraintsReused int64
}

// AvgConstraintSize returns the mean constraint size across paths.
func (r *Result) AvgConstraintSize() float64 {
	if len(r.Paths) == 0 {
		return 0
	}
	var sum int64
	for _, p := range r.Paths {
		sum += int64(p.ConstraintSize())
	}
	return float64(sum) / float64(len(r.Paths))
}

// MaxConstraintSize returns the largest constraint size across paths.
func (r *Result) MaxConstraintSize() int {
	m := 0
	for _, p := range r.Paths {
		if s := p.ConstraintSize(); s > m {
			m = s
		}
	}
	return m
}

// workItem is a pending path: a decision prefix ending in a flipped branch,
// with the model that proved the flipped arm feasible (nil when unknown).
type workItem struct {
	decisions []bool
	w         sym.Assignment
	site      coverage.BranchID // site of the flipped decision
	dir       bool              // direction the flipped decision takes
}

// Engine explores all paths of a Handler.
type Engine struct {
	// Strategy orders path exploration; nil means NewInterleaved(1), the
	// Cloud9 default strategy per the paper's §4.1. Parallel exploration
	// needs per-worker frontier instances, so a non-nil Strategy that does
	// not implement WorkerStrategy (the built-in strategies all do) forces
	// the run sequential — the configured search order is honored exactly
	// rather than silently replaced.
	Strategy Strategy
	// MaxPaths caps explored paths; 0 means unlimited. The paper notes
	// SOFT can work with partial path sets. When the cap truncates a run,
	// the set of explored paths depends on strategy order (and, with
	// Workers > 1, on scheduling) unless CanonicalCut makes the truncation
	// deterministic; only exhaustive and CanonicalCut runs are canonical.
	MaxPaths int
	// CanonicalCut makes MaxPaths truncation canonical: the run keeps the
	// MaxPaths canonically smallest completed paths (lexicographic
	// decision-prefix order) instead of the first MaxPaths that happened to
	// complete, and prunes pending subtrees that can no longer contribute.
	// Truncated results then serialize to the same bytes for every worker
	// count and across distributed shard layouts. In a truncated canonical
	// run Result.Cov covers exactly the kept paths (attempts that were
	// pruned or discarded are schedule-dependent and must not leak into the
	// result), and the Infeasible/DepthTruncated/BranchQueries counters
	// remain approximate. Ignored when MaxPaths is 0. See doc.go.
	CanonicalCut bool
	// Prefix seeds exploration at the subtree below the given branch-decision
	// prefix instead of the execution tree's root: the initial path replays
	// the prefix and exploration forks only beyond it. The prefix must be a
	// feasible decision prefix of the handler's tree (distributed shards use
	// prefixes recorded at real fork points, which are feasible by
	// construction). Completed paths carry the full decision vector including
	// the prefix, so results from disjoint subtrees merge canonically.
	Prefix []bool
	// ShardSink, when set, diverts every forked work item whose decision
	// vector is longer than ShardDepth to the sink instead of the frontier:
	// the run explores (fully) only the paths reachable through prefixes of
	// length <= ShardDepth and hands each diverted prefix — the root of an
	// unexplored subtree — to the caller. The distributed coordinator uses
	// this to split the frontier: diverted prefixes partition the unexplored
	// tree, so exploring each of them with Prefix set and merging the results
	// with the local paths reconstructs exactly the full run. A run with
	// ShardSink is forced sequential; the sink owns the prefix slices it
	// receives.
	ShardDepth int
	ShardSink  func(prefix []bool)
	// MaxDepth caps symbolic decisions per path; 0 means unlimited.
	MaxDepth int
	// WantModels extracts a satisfying model per completed path.
	WantModels bool
	// CovMap, when set, allocates per-path coverage sets over this universe.
	CovMap *coverage.Map
	// Workers is the number of parallel exploration workers. 0 means
	// GOMAXPROCS; 1 forces sequential exploration. Exhaustive runs produce
	// identical Results for every worker count (see doc.go).
	Workers int
	// Progress, when set, is invoked after each completed path with the
	// cumulative number of paths kept so far. With Workers > 1 it is called
	// from worker goroutines and must be safe for concurrent use; counts are
	// monotonically increasing but may arrive out of order. The callback
	// must not retain or mutate engine state — it exists to drive progress
	// reporting for long runs and has no effect on exploration.
	Progress func(pathsDone int)

	queue    Strategy
	counters pathCounters
}

// Run explores h and returns all completed paths in canonical
// decision-prefix order.
func (e *Engine) Run(h Handler) *Result {
	return e.RunContext(context.Background(), h)
}

// RunContext is Run with cancellation: when ctx is cancelled (or its
// deadline expires) exploration stops at the next path boundary and the
// partial result comes back with Cancelled and PathsTruncated set. Paths
// completed before the cancellation are kept and canonicalized as usual;
// only exhaustive (non-cancelled, non-truncated) runs are byte-identical
// across worker counts.
func (e *Engine) RunContext(ctx context.Context, h Handler) *Result {
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if e.Strategy != nil {
		if _, ok := e.Strategy.(WorkerStrategy); !ok {
			// A custom strategy without per-worker derivation cannot be
			// split across frontiers; honor its exact order sequentially.
			workers = 1
		}
	}
	if e.ShardSink != nil {
		// Frontier splitting is a coordinator-side operation over a shallow
		// tree slice; keep it sequential so the sink needs no locking.
		workers = 1
	}

	res := &Result{Inputs: make(map[string]*sym.Expr)}
	if e.CovMap != nil {
		res.Cov = e.CovMap.NewSet()
	}

	start := time.Now()
	if workers == 1 {
		e.runSequential(ctx, h, res)
	} else {
		e.runParallel(ctx, h, workers, res)
	}
	canonicalizePaths(res.Paths)
	if res.Cancelled {
		res.PathsTruncated = true
	}
	res.Elapsed = time.Since(start)
	return res
}

// newContext builds the execution context for one path attempt on the
// worker's persistent session, reset for the new path.
func (e *Engine) newContext(it *workItem, enqueue func(*workItem), counters *pathCounters, sess *bitblast.Session) *Context {
	sess.Reset()
	ctx := &Context{
		maxDepth:  e.MaxDepth,
		enqueue:   enqueue,
		counters:  counters,
		sess:      sess,
		decisions: it.decisions,
		w:         it.w,
		inputs:    make(map[string]*sym.Expr),
	}
	if e.CovMap != nil {
		ctx.cov = e.CovMap.NewSet()
	}
	return ctx
}

// addSolveCounters folds one worker's counters and its session's into the
// result.
func addSolveCounters(res *Result, c *pathCounters, sess *bitblast.Session) {
	res.BranchQueries += c.branchQueries
	res.AssumptionSolves += sess.AssumptionSolves
	res.ConstraintsReused += sess.ConstraintsReused
}

// completePath turns a finished context into a Path (with model extraction
// when requested).
func (e *Engine) completePath(ctx *Context) *Path {
	p := &Path{
		PC:        ctx.pc,
		Outputs:   ctx.outputs,
		Cov:       ctx.cov,
		Crashed:   ctx.crashed,
		CrashMsg:  ctx.crashMsg,
		Branches:  ctx.depth,
		Decisions: ctx.decisions,
	}
	if e.WantModels {
		// Canonical extraction keeps the model a pure function of the path
		// condition: the same path yields the same witness bytes whatever
		// the worker count or encoding layout did to the CDCL search
		// trajectory. The ordered solve decides satisfiability itself.
		if m, ok := ctx.sess.CanonicalModel(); ok {
			p.Model = m
		}
	}
	return p
}

// runSequential is the single-threaded exploration loop. cancel is the
// run's context.Context (named to keep ctx free for the per-path execution
// Context).
func (e *Engine) runSequential(cancel context.Context, h Handler, res *Result) {
	e.queue = e.Strategy
	if e.queue == nil {
		e.queue = NewInterleaved(1)
	}
	e.counters = pathCounters{}
	sess := bitblast.NewSession()
	cut := e.newCanonCut()

	enqueue := func(it *workItem) {
		if e.ShardSink != nil && len(it.decisions) > e.ShardDepth {
			e.ShardSink(it.decisions)
			return
		}
		e.queue.Push(it)
	}
	e.queue.Push(e.rootItem())
	completed := 0
	for e.queue.Len() > 0 {
		if cancel.Err() != nil {
			res.Cancelled = true
			break
		}
		if cut == nil && e.MaxPaths > 0 && len(res.Paths) >= e.MaxPaths {
			res.PathsTruncated = true
			break
		}
		it, ok := e.queue.Pop(res.Cov)
		if !ok {
			break
		}
		if cut != nil && cut.prune(it.decisions) {
			continue
		}
		ctx := e.newContext(it, enqueue, &e.counters, sess)
		outcome := runOne(ctx, h)
		for name, v := range ctx.inputs {
			res.Inputs[name] = v
		}
		switch outcome {
		case pathCompleted, pathCrashed:
			p := e.completePath(ctx)
			if cut != nil {
				cut.admit(p)
			} else {
				res.Paths = append(res.Paths, p)
			}
			if res.Cov != nil {
				res.Cov.Merge(ctx.cov)
			}
			completed++
			if e.Progress != nil {
				e.Progress(completed)
			}
		case pathInfeasible:
			res.Infeasible++
		case pathDepthTruncated:
			res.DepthTruncated++
			if res.Cov != nil {
				res.Cov.Merge(ctx.cov)
			}
		}
	}
	addSolveCounters(res, &e.counters, sess)
	e.applyCanonCut(cut, res)
}

// newCanonCut returns the canonical-truncation tracker for this run, or nil
// when the run is not canonically capped.
func (e *Engine) newCanonCut() *canonCut {
	if e.CanonicalCut && e.MaxPaths > 0 {
		return newCanonCut(e.MaxPaths)
	}
	return nil
}

// rootItem is the initial work item: the tree root, whose empty path
// condition the empty assignment satisfies, or the subtree root when the
// engine is seeded with a decision prefix, whose witness is unknown.
func (e *Engine) rootItem() *workItem {
	it := &workItem{decisions: append([]bool(nil), e.Prefix...), site: -1}
	if len(e.Prefix) == 0 {
		it.w = sym.Assignment{}
	}
	return it
}

// applyCanonCut moves a canonically truncated run's kept set into the
// result. A truncated cut rebuilds coverage from the kept paths alone:
// which other attempts executed before pruning kicked in is
// schedule-dependent, and canonical truncation promises a result that is a
// pure function of the execution tree.
func (e *Engine) applyCanonCut(cut *canonCut, res *Result) {
	if cut == nil {
		return
	}
	kept, truncated := cut.paths()
	res.Paths = kept
	if !truncated {
		return
	}
	res.PathsTruncated = true
	if e.CovMap != nil {
		res.Cov = e.CovMap.NewSet()
		for _, p := range kept {
			res.Cov.Merge(p.Cov)
		}
	}
}

// LessDecisions reports whether decision vector a sorts before b in
// canonical order: lexicographic with false < true, a proper prefix before
// its extensions. This is the order path IDs are assigned in, the order
// distributed shard results are merged in, and the order canonical MaxPaths
// truncation cuts at. It is subtree-monotone: all descendants of a prefix
// sort after it, and they compare to vectors outside the subtree exactly as
// the prefix itself does.
func LessDecisions(a, b []bool) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return !a[i]
		}
	}
	return len(a) < len(b)
}

// canonicalizePaths sorts paths into canonical decision-prefix order and
// assigns IDs, making results independent of exploration order.
func canonicalizePaths(paths []*Path) {
	sort.Slice(paths, func(i, j int) bool {
		return LessDecisions(paths[i].Decisions, paths[j].Decisions)
	})
	for i, p := range paths {
		p.ID = i
	}
}

type pathOutcome int

const (
	pathCompleted pathOutcome = iota
	pathCrashed
	pathInfeasible
	pathDepthTruncated
)

// pathPanic is the value the engine panics with when a handler (or the
// engine itself) panics on a path for any reason other than the engine's
// own path aborts. It names the path by the branch decisions taken before
// the panic, so the failure can be replayed with Engine.Prefix. Under
// parallel exploration the panic is caught on the worker, every worker is
// stopped, and it is re-raised on the goroutine that called Run, where the
// caller can recover it; stack keeps the worker's stack at the panic site.
type pathPanic struct {
	decisions []bool
	value     any
	stack     []byte
}

func (p *pathPanic) Error() string {
	return fmt.Sprintf("symexec: panic on path %s: %v\n\npath goroutine stack:\n%s",
		FormatDecisions(p.decisions), p.value, p.stack)
}

// FormatDecisions renders a decision prefix compactly for messages and logs
// ("tff"; "·" for the root).
func FormatDecisions(p []bool) string {
	if len(p) == 0 {
		return "·"
	}
	b := make([]byte, len(p))
	for i, v := range p {
		if v {
			b[i] = 't'
		} else {
			b[i] = 'f'
		}
	}
	return string(b)
}

func runOne(ctx *Context, h Handler) (out pathOutcome) {
	defer func() {
		if r := recover(); r != nil {
			ab, ok := r.(abortPanic)
			if !ok {
				// Genuine bug in handler or engine: name the path. The
				// decisions slice may run ahead of depth during replay, or
				// lag it by one when the panic hit a frontier query.
				taken := ctx.decisions[:min(ctx.depth, len(ctx.decisions))]
				panic(&pathPanic{decisions: append([]bool(nil), taken...), value: r, stack: debug.Stack()})
			}
			switch ab.kind {
			case abortCrash:
				out = pathCrashed
			case abortInfeasible:
				out = pathInfeasible
			case abortDepth:
				out = pathDepthTruncated
			}
		}
	}()
	h(ctx)
	return pathCompleted
}
