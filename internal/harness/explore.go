package harness

import (
	"context"
	"time"

	"github.com/soft-testing/soft/internal/agents"
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
	// WantModels extracts a concrete input example per path.
	WantModels bool
	// Workers is the number of parallel exploration workers (0 =
	// GOMAXPROCS). Exhaustive explorations produce identical results for
	// every worker count.
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
	// split (see symexec.Engine.ShardSink). Forces the run onto one worker.
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

// PathResult is one explored path as the crosscheck phase sees it: its
// condition, its normalized trace and, when models were asked for, a
// concrete input taking it. It carries nothing of the agent or the engine.
type PathResult struct {
	ID       int
	Crashed  bool
	Branches int
	Cond     *sym.Expr
	// Template is the normalized trace's structural shape (expressions
	// elided); Canonical is its full rendering, the group key; Exprs are
	// the expressions embedded in it.
	Template  string
	Canonical string
	Exprs     []*sym.Expr
	Model     sym.Assignment
}

// Result is the phase-1 output for one (agent, test) pair — the
// "intermediate result" a vendor ships to the crosscheck phase (§2.4).
// Explore returns it, Write and ReadResults carry it through the results
// file, the store keeps it and a fleet merge rebuilds it; all of them give
// the same value, apart from the run counters below.
type Result struct {
	Agent     string
	Test      string
	MsgCount  int
	Elapsed   time.Duration
	InstrPct  float64
	BranchPct float64
	// Truncated reports a partial path set: MaxPaths fired or the run was
	// cancelled before the execution tree was exhausted.
	Truncated bool
	// Cancelled reports that the exploration context was cancelled (its
	// paths are the partial set completed before the cancellation).
	Cancelled bool
	Paths     []PathResult

	// The run counters never enter the results file: they read zero on a
	// result read from a file or the store.
	Infeasible     int
	DepthTruncated int
	BranchQueries  int64
	SolverStats    solver.Stats
}

// SerializedResult is Result.
//
// Deprecated: use Result.
type SerializedResult = Result

// Serialized returns r itself.
//
// Deprecated: a Result is already what the results file carries.
func (r *Result) Serialized() *Result { return r }

// AvgConstraintOps returns the mean constraint size over paths: the
// Table 2 metric, boolean operations in the path condition.
func (r *Result) AvgConstraintOps() float64 {
	if len(r.Paths) == 0 {
		return 0
	}
	var sum int64
	for _, p := range r.Paths {
		sum += int64(p.Cond.Size())
	}
	return float64(sum) / float64(len(r.Paths))
}

// MaxConstraintOps returns the largest constraint size over paths.
func (r *Result) MaxConstraintOps() int {
	m := 0
	for _, p := range r.Paths {
		m = max(m, p.Cond.Size())
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
	res, _ := explore(ctx, a, t, o)
	return res
}

// explore runs the engine and renders its paths into a Result; the
// engine's own result is returned too, for ExploreShard's merge keys.
func explore(ctx context.Context, a agents.Agent, t Test, o Options) (*Result, *symexec.Result) {
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
	run := eng.RunContext(ctx, func(ctx *symexec.Context) {
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
		Elapsed:        run.Elapsed,
		Truncated:      run.PathsTruncated,
		Cancelled:      run.Cancelled,
		Infeasible:     run.Infeasible,
		DepthTruncated: run.DepthTruncated,
		BranchQueries:  run.BranchQueries,
	}
	if run.Cov != nil {
		out.InstrPct = run.Cov.InstructionPct()
		out.BranchPct = run.Cov.BranchPct()
	}
	internHitsAfter, _ := sym.InternStats()
	out.SolverStats = solver.Stats{
		AssumptionSolves:  run.AssumptionSolves,
		ConstraintsReused: run.ConstraintsReused,
		InternHits:        int64(internHitsAfter - internHitsBefore),
	}
	out.Paths = make([]PathResult, len(run.Paths))
	for i, p := range run.Paths {
		tr := trace.FromOutputs(p.Outputs, p.Crashed)
		out.Paths[i] = PathResult{
			ID:        p.ID,
			Crashed:   p.Crashed,
			Branches:  p.Branches,
			Cond:      p.Condition(),
			Template:  tr.Template(),
			Canonical: tr.Canonical(),
			Exprs:     tr.Exprs(),
			Model:     p.Model,
		}
	}
	return out, run
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

// DescribeReproducer labels each wire message Reproduce built for t by
// the kind of input it concretizes: an OpenFlow message by the type code
// in its header, a probe packet as "dataplane-probe". Nothing is decoded,
// so a witness with a malformed body keeps its message label.
func DescribeReproducer(t Test, wires [][]byte) []string {
	out := make([]string, 0, len(wires))
	for _, input := range t.Inputs(sym.Var) {
		if len(out) == len(wires) {
			break
		}
		if input.Msg != nil {
			out = append(out, openflow.MsgType(wires[len(out)][1]).String())
		} else if input.Probe != nil {
			out = append(out, "dataplane-probe")
		}
	}
	return out
}
