// Package soft is the public, embeddable API for SOFT — the paper's
// two-phase pipeline for finding behavioral inconsistencies between
// OpenFlow agent implementations by symbolic execution and constraint
// solving.
//
// The pipeline mirrors the paper's deployment model (§2.4): each vendor
// privately runs phase 1 on its own agent and ships only the intermediate
// results (path conditions plus normalized output traces); phase 2
// crosschecks two such result sets with no access to either agent's
// source.
//
//	ctx := context.Background()
//	ref, _ := soft.AgentByName("ref")
//	ovs, _ := soft.AgentByName("ovs")
//	test, _ := soft.TestByName("Packet Out")
//
//	ra, _ := soft.Explore(ctx, ref, test, soft.WithModels(true))
//	rb, _ := soft.Explore(ctx, ovs, test, soft.WithModels(true))
//	rep, _ := soft.CrossCheck(ctx, soft.Group(ra), soft.Group(rb))
//	for _, inc := range rep.Inconsistencies {
//		fmt.Println(inc) // behavioral difference + concrete witness input
//	}
//
// Every entry point takes a context.Context: cancelling it mid-run stops
// exploration at the next path boundary (or the crosscheck at the next
// group pair) and returns the partial result with its Truncated/Partial
// and Cancelled flags set. Exhaustive explorations are deterministic: the
// same agent and test produce byte-identical serialized results for any
// worker count.
//
// Agents are looked up through a process-wide registry. The three
// evaluation agents ("ref", "modified", "ovs") register themselves when
// this package is imported; embedders add their own implementations with
// RegisterAgent. Custom programs under test that are not full OpenFlow
// agents can be explored directly as a Handler via ExploreHandler.
package soft

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"github.com/soft-testing/soft/internal/agents"
	"github.com/soft-testing/soft/internal/agents/modified"
	_ "github.com/soft-testing/soft/internal/agents/ovs"       // register "ovs"
	_ "github.com/soft-testing/soft/internal/agents/refswitch" // register "ref"
	"github.com/soft-testing/soft/internal/crosscheck"
	"github.com/soft-testing/soft/internal/dataplane"
	"github.com/soft-testing/soft/internal/group"
	"github.com/soft-testing/soft/internal/harness"
	"github.com/soft-testing/soft/internal/report"
	"github.com/soft-testing/soft/internal/solver"
	"github.com/soft-testing/soft/internal/sym"
	"github.com/soft-testing/soft/internal/symbuf"
	"github.com/soft-testing/soft/internal/symexec"
)

// The pipeline's data types. These are aliases for the implementation
// packages' types, so the public API and the internal engine share one set
// of values with no conversion layer.
type (
	// Agent is a testable OpenFlow agent implementation; Instance is one
	// running connection's state. Embedders implement both to put their own
	// agent under test.
	Agent    = agents.Agent
	Instance = agents.Instance

	// Test is one input sequence (a Table 1 row); Input is one element of
	// it: an OpenFlow control message or a data plane probe.
	Test  = harness.Test
	Input = harness.Input

	// Result is a phase-1 exploration result for one (agent, test) pair —
	// the "intermediate result" a vendor ships to the crosscheck. Write
	// serializes it to the versioned results-file format; ReadResults
	// parses it back as a SerializedResult.
	Result     = harness.Result
	PathResult = harness.PathResult

	// SerializedResult is the crosscheck-phase view of a Result after a
	// round trip through the results-file format; SerializedPath is one of
	// its paths.
	SerializedResult = harness.SerializedResult
	SerializedPath   = harness.SerializedPath

	// Grouped is a phase-1 result grouped by distinct output behavior;
	// OutputGroup is one behavior and the input subspace producing it.
	Grouped     = group.Result
	OutputGroup = group.Group

	// Report is the crosscheck outcome; Inconsistency is one discovered
	// behavioral difference with its concrete witness input.
	Report        = crosscheck.Report
	Inconsistency = crosscheck.Inconsistency

	// Expr is a symbolic bitvector or boolean expression; Assignment maps
	// input variable names to concrete values (a witness or test case).
	Expr       = sym.Expr
	Assignment = sym.Assignment

	// Handler is a program under test executed directly by the engine;
	// ExecContext is the per-path execution context it receives.
	Handler       = symexec.Handler
	ExecContext   = symexec.Context
	HandlerResult = symexec.Result
	Path          = symexec.Path

	// Strategy orders path exploration (see DFS, BFS, RandomStrategy,
	// CoverageOptimized, Interleaved).
	Strategy = symexec.Strategy

	// Solver is the constraint-solving façade shared across pipeline
	// stages; it is safe for concurrent use and caches query results in a
	// sharded, single-flight cache.
	Solver = solver.Solver

	// SolverStats aggregates solver work for one pipeline stage: queries,
	// cache hits, and solve time. Carried by Result.SolverStats, Report.SolverStats
	// and the final progress Event of each stage.
	SolverStats = solver.Stats

	// MsgBuffer is a symbolic OpenFlow message under construction; Packet
	// is a data plane probe. Both appear in the Instance interface.
	MsgBuffer = symbuf.Buffer
	Packet    = dataplane.Packet

	// InjectedFinding is one §5.1.1 injected-modification verdict.
	InjectedFinding = report.InjectedFinding
)

// The §5.1.1 injected-modification experiment constants: how many changes
// the Modified Switch carries and how many SOFT's test suite can observe.
const (
	InjectedModifications           = modified.TotalModifications
	DetectableInjectedModifications = modified.DetectableModifications
)

// RegisterAgent adds an agent factory to the process-wide registry under a
// canonical name plus optional aliases, making it available to AgentByName
// and to the soft CLI. It panics if a name is already taken.
func RegisterAgent(name string, factory func() Agent, aliases ...string) {
	agents.Register(name, factory, aliases...)
}

// AgentByName instantiates a registered agent. The error for an unknown
// name lists every registered agent.
func AgentByName(name string) (Agent, error) { return agents.ByName(name) }

// Agents returns the canonical names of all registered agents, sorted.
func Agents() []string { return agents.Names() }

// Tests returns the evaluation test suite (Table 1).
func Tests() []Test { return harness.Tests() }

// TestByName finds a test by its Table 1 name.
func TestByName(name string) (Test, bool) { return harness.TestByName(name) }

// NewSolver returns a fresh solver. Pass it with WithSolver to share one
// query cache across several CrossCheck calls.
func NewSolver() *Solver { return solver.New() }

// Explore symbolically executes agent a on test t — the whole of SOFT's
// phase 1 for one (agent, test) pair. Cancelling ctx stops exploration at
// the next path boundary; the partial Result is still returned, with
// Truncated and Cancelled set. The error is reserved for invalid
// arguments.
func Explore(ctx context.Context, a Agent, t Test, opts ...Option) (*Result, error) {
	if a == nil {
		return nil, errors.New("soft: Explore: nil agent")
	}
	if t.Inputs == nil {
		return nil, fmt.Errorf("soft: Explore: test %q has no input builder", t.Name)
	}
	cfg := newConfig(opts)
	ho := harness.Options{
		MaxPaths:     cfg.maxPaths,
		MaxDepth:     cfg.maxDepth,
		Strategy:     cfg.strategy,
		WantModels:   cfg.models,
		Workers:      cfg.workers,
		CanonicalCut: cfg.canonicalCut,
	}
	agent, test := a.Name(), t.Name
	var pq *progressQueue
	if cfg.progress != nil {
		pq = newProgressQueue(cfg.progress)
		ho.Progress = func(n int) {
			pq.send(Event{Phase: PhaseExplore, Agent: agent, Test: test, Done: n})
		}
	}
	res := harness.ExploreContext(ctx, a, t, ho)
	if pq != nil {
		// Final event: the stage's solver statistics, for observability of
		// cache and session efficacy without a profiler. Total stays
		// 0 per the PhaseExplore contract (the workload is never known in
		// advance, and a truncated run completed only part of it).
		pq.close(Event{
			Phase: PhaseExplore, Agent: agent, Test: test,
			Done:  len(res.Paths),
			Stats: &res.SolverStats,
		})
	}
	return res, nil
}

// ExploreHandler symbolically executes an arbitrary handler — the phase-1
// engine without the OpenFlow harness, for embedders testing their own
// drivers (the package example and the quickstart use it for the paper's
// Figure 1 toy agents). Cancellation behaves as in Explore.
func ExploreHandler(ctx context.Context, h Handler, opts ...Option) (*HandlerResult, error) {
	if h == nil {
		return nil, errors.New("soft: ExploreHandler: nil handler")
	}
	cfg := newConfig(opts)
	eng := &symexec.Engine{
		Strategy:     cfg.strategy,
		MaxPaths:     cfg.maxPaths,
		MaxDepth:     cfg.maxDepth,
		WantModels:   cfg.models,
		Workers:      cfg.workers,
		CanonicalCut: cfg.canonicalCut,
	}
	var pq *progressQueue
	if cfg.progress != nil {
		pq = newProgressQueue(cfg.progress)
		eng.Progress = func(n int) {
			pq.send(Event{Phase: PhaseExplore, Done: n})
		}
	}
	res := eng.RunContext(ctx, h)
	if pq != nil {
		// Queries stays zero: a raw handler run never touches the solver
		// façade (feasibility runs on per-worker SAT sessions and is
		// reported separately as HandlerResult.BranchQueries), and the
		// field must mean the same thing here as in Explore's final event.
		pq.close(Event{
			Phase: PhaseExplore,
			Done:  len(res.Paths),
			Stats: &SolverStats{},
		})
	}
	return res, nil
}

// Group merges a phase-1 result's paths by distinct output behavior: all
// path conditions with the same normalized trace become one disjunction
// (§3.4). Grouping is what makes the crosscheck tractable — the solver
// query count drops from |paths_A|·|paths_B| to |groups_A|·|groups_B|.
func Group(r *Result) *Grouped { return group.Paths(r.Serialized()) }

// GroupSerialized is Group for a result read back from the results-file
// format (the vendor hand-off path).
func GroupSerialized(r *SerializedResult) *Grouped { return group.Paths(r) }

// CrossCheck is SOFT's phase 2: for every pair of groups from a and b with
// different outputs it asks the solver whether both conditions can hold on
// one input — each satisfying model is a concrete witness of a behavioral
// inconsistency. Both results must come from the same test. Cancelling ctx
// stops the scan at the next group pair; the partial Report is still
// returned, with Partial and Cancelled set.
func CrossCheck(ctx context.Context, a, b *Grouped, opts ...Option) (*Report, error) {
	if a == nil || b == nil {
		return nil, errors.New("soft: CrossCheck: nil grouped result")
	}
	if a.Test != b.Test {
		return nil, fmt.Errorf("soft: CrossCheck: results are from different tests (%q vs %q)", a.Test, b.Test)
	}
	cfg := newConfig(opts)
	co := crosscheck.Opts{
		Solver:  cfg.solver,
		Budget:  cfg.budget,
		Workers: cfg.workers,
	}
	var maxDone, lastTotal atomic.Int64
	var pq *progressQueue
	if cfg.progress != nil {
		pq = newProgressQueue(cfg.progress)
		agentA, agentB, test := a.Agent, b.Agent, a.Test
		co.Progress = func(done, total int) {
			for { // track the high-water mark; counts may arrive out of order
				cur := maxDone.Load()
				if int64(done) <= cur || maxDone.CompareAndSwap(cur, int64(done)) {
					break
				}
			}
			lastTotal.Store(int64(total))
			pq.send(Event{
				Phase: PhaseCrossCheck, Agent: agentA, AgentB: agentB,
				Test: test, Done: done, Total: total,
			})
		}
	}
	rep := crosscheck.RunOpts(ctx, a, b, co)
	if pq != nil {
		// Final event: the stage's aggregated solver statistics.
		pq.close(Event{
			Phase: PhaseCrossCheck, Agent: a.Agent, AgentB: b.Agent,
			Test: a.Test, Done: int(maxDone.Load()), Total: int(lastTotal.Load()),
			Stats: &rep.SolverStats,
		})
	}
	return rep, nil
}

// ReadResults parses a serialized phase-1 results file (the soft-results
// v1 format produced by Result.Write / WriteResults).
func ReadResults(r io.Reader) (*SerializedResult, error) { return harness.ReadResults(r) }

// WriteResults serializes a phase-1 result to the results-file format.
func WriteResults(w io.Writer, r *Result) error { return r.Write(w) }

// Reproduce renders a test's input sequence under a witness assignment
// into concrete OpenFlow wire messages — the ready-made test case SOFT
// constructs per inconsistency (§2.3).
func Reproduce(t Test, witness Assignment) [][]byte { return harness.Reproduce(t, witness) }

// DescribeReproducer labels reproducer wire messages for display.
func DescribeReproducer(wires [][]byte) []string { return harness.DescribeReproducer(wires) }

// CheckSat asks the solver whether the conjunction of conds is
// satisfiable, returning a satisfying assignment when it is.
func CheckSat(s *Solver, conds ...*Expr) (bool, Assignment) {
	if s == nil {
		s = solver.New()
	}
	res, model := s.Check(conds...)
	return res == solver.Sat, model
}

// Classify maps an inconsistency to its §5.1.2 class name (crash, silent
// drop, missing error message, validation order, missing feature, ...).
func Classify(inc Inconsistency) string { return report.Classify(inc) }

// InjectedFindings runs the §5.1.1 experiment — the full suite, Modified
// Switch versus Reference Switch — and reports which of the seven injected
// modifications were pinpointed. WithBudget and WithMaxPaths bound the
// underlying runs.
func InjectedFindings(opts ...Option) []InjectedFinding {
	cfg := newConfig(opts)
	return report.InjectedData(report.Options{MaxPaths: cfg.maxPaths, CheckBudget: cfg.budget})
}
