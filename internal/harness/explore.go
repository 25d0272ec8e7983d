package harness

import (
	"context"
	"time"

	"github.com/soft-testing/soft/internal/agents"
	"github.com/soft-testing/soft/internal/coverage"
	"github.com/soft-testing/soft/internal/obs"
	"github.com/soft-testing/soft/internal/openflow"
	"github.com/soft-testing/soft/internal/solver"
	"github.com/soft-testing/soft/internal/sym"
	"github.com/soft-testing/soft/internal/symexec"
	"github.com/soft-testing/soft/internal/trace"
)

// Options tunes an exploration run.
type Options struct {
	// MaxPaths caps exploration (0 = DefaultMaxPaths). The paper notes
	// SOFT works with partial path sets too.
	MaxPaths int
	// MaxDepth caps symbolic decisions per path (0 = DefaultMaxDepth).
	MaxDepth int
	// Strategy overrides the engine search strategy.
	Strategy symexec.Strategy
	// WantModels extracts a concrete input example per path.
	WantModels bool
	// Workers is the number of parallel exploration workers (0 =
	// GOMAXPROCS, 1 = sequential). Exhaustive explorations produce
	// identical results for every worker count.
	Workers int
	// CanonicalCut makes MaxPaths truncation canonical: the run keeps the
	// MaxPaths canonically smallest paths instead of the first MaxPaths to
	// complete, so truncated results serialize to the same bytes for every
	// worker count and shard layout (see symexec.Engine.CanonicalCut).
	// Distributed exploration always runs with it on.
	CanonicalCut bool
	// Deprecated: ignored; exploration always uses per-worker sessions.
	Incremental bool
	// Prefix seeds exploration at the subtree below the given decision
	// prefix (a distributed shard; see symexec.Engine.Prefix).
	Prefix []bool
	// ShardSink, with ShardDepth, diverts forks deeper than ShardDepth to
	// the sink instead of exploring them — the coordinator-side frontier
	// split (see symexec.Engine.ShardSink). Forces the run sequential.
	ShardDepth int
	ShardSink  func(prefix []bool)
	// Progress, when set, is called after each completed path with the
	// cumulative path count. With Workers > 1 it runs on worker goroutines
	// and must be safe for concurrent use.
	Progress func(pathsDone int)
}

// DefaultMaxPaths bounds a single exploration.
const DefaultMaxPaths = 60000

// DefaultMaxDepth bounds decisions per path.
const DefaultMaxDepth = 256

// PathResult is one explored path: its condition and normalized trace.
type PathResult struct {
	ID   int
	Cond *sym.Expr
	// ConstraintOps is the Table 2 metric: boolean operations in the path
	// condition.
	ConstraintOps int
	Trace         trace.Trace
	Model         sym.Assignment
	Crashed       bool
	Branches      int
	// Decisions is the branch-decision vector identifying the path in the
	// execution tree — the canonical merge key for distributed shards. It
	// never enters the results file (IDs already encode the canonical
	// order there).
	Decisions []bool
	// Cov is this path's own coverage set (nil when the agent has no
	// coverage universe). Distributed merges need per-path coverage so a
	// canonically truncated merge can rebuild coverage from exactly the
	// kept paths.
	Cov *coverage.Set
}

// Result is the phase-1 output for one (agent, test) pair — the
// "intermediate result" a vendor ships to the crosscheck phase (§2.4).
type Result struct {
	Agent    string
	Test     string
	MsgCount int

	Paths []PathResult

	Elapsed   time.Duration
	InstrPct  float64
	BranchPct float64
	// Truncated reports a partial path set: MaxPaths fired or the run was
	// cancelled before the execution tree was exhausted.
	Truncated bool
	// Cancelled reports that the exploration context was cancelled (its
	// paths are the partial set completed before the cancellation).
	Cancelled      bool
	Infeasible     int
	DepthTruncated int
	BranchQueries  int64
	SolverStats    solver.Stats
	// Cov is the run's cumulative coverage set (nil when the agent has no
	// coverage universe); InstrPct/BranchPct are derived from it. Shards of
	// a distributed run ship it so the coordinator can union coverage
	// exactly as a single-process run would.
	Cov *coverage.Set
}

// AvgConstraintOps returns the mean constraint size over paths.
func (r *Result) AvgConstraintOps() float64 {
	if len(r.Paths) == 0 {
		return 0
	}
	var sum int64
	for _, p := range r.Paths {
		sum += int64(p.ConstraintOps)
	}
	return float64(sum) / float64(len(r.Paths))
}

// MaxConstraintOps returns the largest constraint size over paths.
func (r *Result) MaxConstraintOps() int {
	m := 0
	for _, p := range r.Paths {
		if p.ConstraintOps > m {
			m = p.ConstraintOps
		}
	}
	return m
}

// Explore symbolically executes agent a on test t: the whole of SOFT's
// phase 1 for one (agent, test) pair.
func Explore(a agents.Agent, t Test, o Options) *Result {
	return ExploreContext(context.Background(), a, t, o)
}

// ExploreContext is Explore with cancellation: when ctx is cancelled the
// engine stops at the next path boundary and the Result comes back with
// Cancelled and Truncated set, carrying the paths completed so far.
func ExploreContext(ctx context.Context, a agents.Agent, t Test, o Options) *Result {
	sp := obs.StartSpan("explore:" + a.Name() + "/" + t.Name)
	defer sp.End()
	if o.MaxPaths == 0 {
		o.MaxPaths = DefaultMaxPaths
	}
	if o.MaxDepth == 0 {
		o.MaxDepth = DefaultMaxDepth
	}
	internHitsBefore, _ := sym.InternStats()

	eng := &symexec.Engine{
		Strategy:     o.Strategy,
		MaxPaths:     o.MaxPaths,
		MaxDepth:     o.MaxDepth,
		WantModels:   o.WantModels,
		CovMap:       a.CovMap(),
		Workers:      o.Workers,
		CanonicalCut: o.CanonicalCut,
		Prefix:       o.Prefix,
		ShardDepth:   o.ShardDepth,
		ShardSink:    o.ShardSink,
		Progress:     o.Progress,
	}
	res := eng.RunContext(ctx, func(ctx *symexec.Context) {
		in := a.NewInstance()
		in.Handshake(ctx)
		for _, input := range t.Inputs(ctx.NewSym) {
			if input.Msg != nil {
				in.HandleMessage(ctx, input.Msg)
			} else if input.Probe != nil {
				in.HandlePacket(ctx, input.Probe)
			}
		}
	})

	out := &Result{
		Agent:          a.Name(),
		Test:           t.Name,
		MsgCount:       t.MsgCount,
		Elapsed:        res.Elapsed,
		Truncated:      res.PathsTruncated,
		Cancelled:      res.Cancelled,
		Infeasible:     res.Infeasible,
		DepthTruncated: res.DepthTruncated,
		BranchQueries:  res.BranchQueries,
	}
	if res.Cov != nil {
		out.InstrPct = res.Cov.InstructionPct()
		out.BranchPct = res.Cov.BranchPct()
		out.Cov = res.Cov
	}
	internHitsAfter, _ := sym.InternStats()
	out.SolverStats = solver.Stats{
		AssumptionSolves:  res.AssumptionSolves,
		ConstraintsReused: res.ConstraintsReused,
		InternHits:        int64(internHitsAfter - internHitsBefore),
	}
	for _, p := range res.Paths {
		cond := p.Condition()
		out.Paths = append(out.Paths, PathResult{
			ID:            p.ID,
			Cond:          cond,
			ConstraintOps: cond.Size(),
			Trace:         trace.FromOutputs(p.Outputs, p.Crashed),
			Model:         p.Model,
			Crashed:       p.Crashed,
			Branches:      p.Branches,
			Decisions:     p.Decisions,
			Cov:           p.Cov,
		})
	}
	return out
}

// Reproduce renders the test's input sequence under a solver model into
// concrete OpenFlow wire messages — the ready-made test case SOFT builds
// for each inconsistency (§2.3).
func Reproduce(t Test, model sym.Assignment) [][]byte {
	var out [][]byte
	for _, input := range t.Inputs(sym.Var) {
		if input.Msg != nil {
			out = append(out, input.Msg.Concretize(model))
		} else if input.Probe != nil {
			out = append(out, input.Probe.Serialize(model))
		}
	}
	return out
}

// DescribeReproducer decodes reproducer wire messages for display. Probe
// packets (which do not parse as OpenFlow) are labeled as data plane
// inputs.
func DescribeReproducer(wires [][]byte) []string {
	var out []string
	for _, w := range wires {
		if m, err := openflow.Decode(w); err == nil {
			out = append(out, m.MsgType().String())
		} else {
			out = append(out, "dataplane-probe")
		}
	}
	return out
}
