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
	w         sym.Assignment    // pc's canonical model, or nil when unknown (see BranchSite)
	ev        sym.Evaluator
	sites     []coverage.BranchID
	depth     int // next decision index
	pc        []*sym.Expr
	outputs   []any
	cov       *coverage.Set
	syms      map[string]*sym.Expr // NewSym's variables, allocated on first use
	crashed   bool
	crashMsg  string
}

// NewSym creates (or returns, when re-executed) the symbolic input variable
// with the given name and width. Handlers must create inputs
// deterministically: the same names in the same order on every run, one
// width per name.
func (c *Context) NewSym(name string, w int) *sym.Expr {
	if v, ok := c.syms[name]; ok {
		if v.Width() != w {
			panic(fmt.Sprintf("symexec: input %q redeclared with width %d != %d", name, w, v.Width()))
		}
		return v
	}
	if c.syms == nil {
		c.syms = make(map[string]*sym.Expr)
	}
	v := sym.Var(name, w)
	c.syms[name] = v
	return v
}

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
	// An assumption the replayed prefix still has to pass was checked
	// feasible when the prefix was recorded; solving it now would leave a
	// prefix root's witness satisfying only part of the prefix.
	if !c.satisfied(cond) && c.depth >= len(c.decisions) {
		w, ok := c.sess.SolveCanonical(cond)
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
// enqueued on the worker's frontier (see interleaved).
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
// the first frontier branch falls back to solving both arms. No fork
// depends on which model w is: feasibility is a fact about the formula,
// not about the witness.
//
// Every solve is ordered (Session.SolveCanonical), with models on or off,
// which makes w the canonical model of pc: its lexicographic minimum, over
// pc's variables in name order, reading absent variables as 0. It stays
// canonical as the path grows. If the minimum M of pc satisfies an arm,
// M is also the minimum of pc ∧ arm, since that arm's solutions are a
// subset of pc's that contains M. Variables pc never mentioned read as 0
// in M, and 0 is their minimum. Name order restricted to pc's variables is
// pc's own order. The arm M does not satisfy gets its minimum from its
// ordered solve. So a completed path's model is its witness, with no solve
// (see Engine.completePath).
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
		if wTrue, satTrue = c.sess.SolveCanonical(cond); satTrue {
			wFalse, satFalse = c.sess.SolveCanonical(sym.LNot(cond))
		}
	case c.satisfied(cond):
		wTrue = c.w
		wFalse, satFalse = c.sess.SolveCanonical(sym.LNot(cond))
	default:
		wFalse = c.w
		wTrue, satTrue = c.sess.SolveCanonical(cond)
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
	// yields the same IDs regardless of exploration order or worker count.
	ID       int
	PC       []*sym.Expr // conjuncts in branch order
	Outputs  []any
	Cov      *coverage.Set
	Crashed  bool
	CrashMsg string
	// Model is PC's canonical model, a concrete input taking the path (a
	// ready-made test case), kept when Engine.WantModels is set.
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

// Result is the outcome of exploring a handler exhaustively (or up to the
// engine's limits). Paths are in canonical decision-prefix order, so for
// exhaustive runs the Result is identical whatever the exploration order or
// worker count.
type Result struct {
	Paths []*Path
	// Cov is cumulative coverage over all explored paths.
	Cov *coverage.Set
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
	// MaxPaths caps explored paths; 0 means unlimited. The paper notes
	// SOFT can work with partial path sets. When the cap truncates a run,
	// the set of explored paths depends on the interleaved order (and, with
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
	// ShardSink explores on one worker, so the sink is never called
	// concurrently; it owns the prefix slices it receives.
	ShardDepth int
	ShardSink  func(prefix []bool)
	// MaxDepth caps symbolic decisions per path; 0 means unlimited.
	MaxDepth int
	// WantModels keeps each completed path's canonical model as
	// Path.Model. Exploration is the same either way: every solve is
	// ordered, so the model is the path's witness and costs no solve.
	WantModels bool
	// CovMap, when set, allocates per-path coverage sets over this universe.
	CovMap *coverage.Map
	// Workers is the number of parallel exploration workers; 0 means
	// GOMAXPROCS. Every count runs the same loop, and one worker pops
	// exactly the interleaved order seeded with 1. Exhaustive runs produce identical
	// Results for every worker count (see doc.go).
	Workers int
	// Progress, when set, is invoked after each completed path with the
	// cumulative number of paths kept so far. It is called from the worker
	// goroutines, so with Workers > 1 it must be safe for concurrent use;
	// counts are monotonically increasing but may arrive out of order. The
	// callback must not retain or mutate engine state — it exists to drive
	// progress reporting for long runs and has no effect on exploration.
	Progress func(pathsDone int)
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
	if e.ShardSink != nil {
		// Frontier splitting is a coordinator-side operation over a shallow
		// tree slice; keep it on one worker so the sink needs no locking.
		workers = 1
	}

	res := &Result{}
	if e.CovMap != nil {
		res.Cov = e.CovMap.NewSet()
	}

	start := time.Now()
	e.run(ctx, h, workers, res)
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

// completePath turns a finished context into a Path, keeping its model
// when models are wanted.
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
		// trajectory. The witness is already the canonical model (see
		// BranchSite); only a shard that never found a feasible true arm
		// lacks one, and then it is the shard's only path.
		if ctx.w != nil {
			p.Model = ctx.sess.FillModel(ctx.w)
		} else if m, ok := ctx.sess.CanonicalModel(); ok {
			p.Model = m
		}
	}
	return p
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
