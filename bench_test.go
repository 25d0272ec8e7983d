// Package soft's root benchmark harness regenerates every table and figure
// of the paper's evaluation (§5) as a benchmark target, plus the ablation
// benches DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
//
// Each bench reports domain metrics (paths, groups, inconsistencies,
// coverage) through testing.B's ReportMetric, so the bench output doubles
// as the experiment log.
package soft

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/soft-testing/soft/internal/agents"
	"github.com/soft-testing/soft/internal/agents/ovs"
	"github.com/soft-testing/soft/internal/agents/refswitch"
	"github.com/soft-testing/soft/internal/crosscheck"
	"github.com/soft-testing/soft/internal/group"
	"github.com/soft-testing/soft/internal/harness"
	"github.com/soft-testing/soft/internal/report"
	"github.com/soft-testing/soft/internal/solver"
	"github.com/soft-testing/soft/internal/sym"
)

// benchAgents returns fresh agent models (construction is cheap; agents
// must not share coverage state across benches).
func benchAgents() (ref, ov agents.Agent) { return refswitch.New(), ovs.New() }

// BenchmarkTable1Tests measures building every Table 1 input sequence.
func BenchmarkTable1Tests(b *testing.B) {
	tests := harness.Tests()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, t := range tests {
			t.Inputs(sym.Var)
		}
	}
}

// benchExplore is the Table 2 worker: symbolic execution of one (test,
// agent) cell. Path counts are reported as metrics.
func benchExplore(b *testing.B, testName string, mk func() agents.Agent, maxPaths int) {
	t, ok := harness.TestByName(testName)
	if !ok {
		b.Fatalf("unknown test %s", testName)
	}
	var paths int
	for i := 0; i < b.N; i++ {
		r := harness.Explore(mk(), t, harness.Options{MaxPaths: maxPaths})
		paths = len(r.Paths)
	}
	b.ReportMetric(float64(paths), "paths")
}

// BenchmarkTable2SymbolicExecution regenerates Table 2 row by row. The
// FlowMod-family rows are capped so a full bench run stays in minutes (the
// paper's originals ran for hours to days).
func BenchmarkTable2SymbolicExecution(b *testing.B) {
	caps := map[string]int{"FlowMod": 2000, "Eth FlowMod": 0, "CS FlowMods": 2000}
	for _, tn := range []string{
		"Packet Out", "Stats Request", "Set Config", "Eth FlowMod",
		"FlowMod", "CS FlowMods", "Concrete", "Short Symb",
	} {
		tn := tn
		b.Run(tn+"/ref", func(b *testing.B) {
			benchExplore(b, tn, func() agents.Agent { return refswitch.New() }, caps[tn])
		})
		b.Run(tn+"/ovs", func(b *testing.B) {
			benchExplore(b, tn, func() agents.Agent { return ovs.New() }, caps[tn])
		})
	}
}

// benchExploreWorkers measures one (test, agent) exploration at a fixed
// worker count, reporting paths/sec — the scaling metric for the parallel
// engine.
func benchExploreWorkers(b *testing.B, testName string, mk func() agents.Agent, maxPaths, workers int) {
	t, ok := harness.TestByName(testName)
	if !ok {
		b.Fatalf("unknown test %s", testName)
	}
	b.ReportAllocs()
	var paths int
	for i := 0; i < b.N; i++ {
		r := harness.Explore(mk(), t, harness.Options{MaxPaths: maxPaths, Workers: workers})
		paths = len(r.Paths)
	}
	b.ReportMetric(float64(paths), "paths")
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(paths)*float64(b.N)/sec, "paths/sec")
	}
}

// BenchmarkExploreParallelStatsRequest scales the Table 2 Stats Request row
// across worker counts. The speedup over workers=1 is the parallel engine's
// headline number (the paper ran Cloud9 on a cluster for the same reason).
func BenchmarkExploreParallelStatsRequest(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		w := w
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			benchExploreWorkers(b, "Stats Request", func() agents.Agent { return refswitch.New() }, 0, w)
		})
	}
}

// BenchmarkExploreParallelFlowMod scales the capped FlowMod row — the
// heaviest Table 2 workload the bench suite runs.
func BenchmarkExploreParallelFlowMod(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		w := w
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			benchExploreWorkers(b, "FlowMod", func() agents.Agent { return refswitch.New() }, 2000, w)
		})
	}
}

// BenchmarkExploreParallelOVSPacketOut scales the OVS agent on Packet Out,
// exercising the second agent model under the parallel engine.
func BenchmarkExploreParallelOVSPacketOut(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		w := w
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			benchExploreWorkers(b, "Packet Out", func() agents.Agent { return ovs.New() }, 0, w)
		})
	}
}

// BenchmarkCrossCheckParallel scales phase 2 across worker counts. Each
// worker answers its queries on its own incremental session.
func BenchmarkCrossCheckParallel(b *testing.B) {
	t, _ := harness.TestByName("Packet Out")
	ref, ov := benchAgents()
	ga := group.Paths(harness.Explore(ref, t, harness.Options{}))
	gb := group.Paths(harness.Explore(ov, t, harness.Options{}))
	for _, w := range []int{1, 2, 4, 8} {
		w := w
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			b.ReportAllocs()
			var found int
			for i := 0; i < b.N; i++ {
				rep := crosscheck.RunOpts(context.Background(), ga, gb, crosscheck.Opts{Workers: w})
				found = len(rep.Inconsistencies)
			}
			b.ReportMetric(float64(found), "inconsistencies")
		})
	}
}

// BenchmarkTable3Grouping regenerates the grouping columns of Table 3.
func BenchmarkTable3Grouping(b *testing.B) {
	for _, tn := range []string{"Packet Out", "Stats Request", "Set Config", "Short Symb"} {
		tn := tn
		b.Run(tn, func(b *testing.B) {
			t, _ := harness.TestByName(tn)
			in := harness.Explore(refswitch.New(), t, harness.Options{})
			b.ResetTimer()
			var groups int
			for i := 0; i < b.N; i++ {
				groups = len(group.Paths(in).Groups)
			}
			b.ReportMetric(float64(len(in.Paths)), "paths")
			b.ReportMetric(float64(groups), "groups")
		})
	}
}

// BenchmarkTable3Crosscheck regenerates the inconsistency-checking columns
// of Table 3.
func BenchmarkTable3Crosscheck(b *testing.B) {
	for _, tn := range []string{"Packet Out", "Stats Request", "Set Config", "Short Symb"} {
		tn := tn
		b.Run(tn, func(b *testing.B) {
			t, _ := harness.TestByName(tn)
			ref, ov := benchAgents()
			ga := group.Paths(harness.Explore(ref, t, harness.Options{}))
			gb := group.Paths(harness.Explore(ov, t, harness.Options{}))
			b.ResetTimer()
			var found int
			for i := 0; i < b.N; i++ {
				rep := crosscheck.RunOpts(context.Background(), ga, gb, crosscheck.Opts{Workers: 1})
				found = len(rep.Inconsistencies)
			}
			b.ReportMetric(float64(found), "inconsistencies")
		})
	}
}

// BenchmarkTable4Coverage regenerates the coverage table's measurement
// loop for the fast tests.
func BenchmarkTable4Coverage(b *testing.B) {
	for _, tn := range []string{"Packet Out", "Stats Request", "Concrete"} {
		tn := tn
		b.Run(tn, func(b *testing.B) {
			t, _ := harness.TestByName(tn)
			var instr float64
			for i := 0; i < b.N; i++ {
				r := harness.Explore(refswitch.New(), t, harness.Options{})
				instr = r.InstrPct
			}
			b.ReportMetric(instr, "instr%")
		})
	}
}

// BenchmarkTable5Concretization regenerates the concretization ablation.
func BenchmarkTable5Concretization(b *testing.B) {
	for _, t := range harness.AblationTests() {
		t := t
		b.Run(t.Name, func(b *testing.B) {
			var paths int
			var cov float64
			for i := 0; i < b.N; i++ {
				r := harness.Explore(refswitch.New(), t, harness.Options{MaxPaths: 20000})
				paths = len(r.Paths)
				cov = r.InstrPct
			}
			b.ReportMetric(float64(paths), "paths")
			b.ReportMetric(cov, "instr%")
		})
	}
}

// BenchmarkFigure4CoverageVsMessages regenerates the Figure 4 series.
func BenchmarkFigure4CoverageVsMessages(b *testing.B) {
	for n := 1; n <= 3; n++ {
		n := n
		b.Run(harness.CoverageSequence(n).Name, func(b *testing.B) {
			var cov float64
			for i := 0; i < b.N; i++ {
				r := harness.Explore(refswitch.New(), harness.CoverageSequence(n),
					harness.Options{MaxPaths: 20000})
				cov = r.InstrPct
			}
			b.ReportMetric(cov, "instr%")
		})
	}
}

// BenchmarkAblationGrouping quantifies §3.4's grouping optimization:
// crosschecking grouped results versus raw per-path results.
func BenchmarkAblationGrouping(b *testing.B) {
	t, _ := harness.TestByName("Stats Request")
	ref, ov := benchAgents()
	ra := harness.Explore(ref, t, harness.Options{})
	rb := harness.Explore(ov, t, harness.Options{})
	ga, gb := group.Paths(ra), group.Paths(rb)

	// Ungrouped: one group per path.
	ungroup := func(in *harness.Result) *group.Result {
		out := &group.Result{Agent: in.Agent, Test: in.Test}
		for i := range in.Paths {
			p := &in.Paths[i]
			out.Groups = append(out.Groups, group.Group{
				Canonical: p.Canonical, Template: p.Template,
				Exprs: p.Exprs, Cond: p.Cond, Crashed: p.Crashed, PathCount: 1,
			})
		}
		return out
	}
	ua, ub := ungroup(ra), ungroup(rb)

	b.Run("grouped", func(b *testing.B) {
		var q int
		for i := 0; i < b.N; i++ {
			q = crosscheck.RunOpts(context.Background(), ga, gb, crosscheck.Opts{Workers: 1}).Queries
		}
		b.ReportMetric(float64(q), "queries")
	})
	b.Run("per-path", func(b *testing.B) {
		var q int
		for i := 0; i < b.N; i++ {
			q = crosscheck.RunOpts(context.Background(), ua, ub, crosscheck.Opts{Workers: 1}).Queries
		}
		b.ReportMetric(float64(q), "queries")
	})
}

// BenchmarkAblationOrTree compares §4.2's balanced OR construction with a
// naive linear chain, measured at the solver.
func BenchmarkAblationOrTree(b *testing.B) {
	t, _ := harness.TestByName("Packet Out")
	r := harness.Explore(refswitch.New(), t, harness.Options{})
	var conds []*sym.Expr
	for i := range r.Paths {
		conds = append(conds, r.Paths[i].Cond)
	}
	query := func(disj *sym.Expr) {
		if !solver.New().Sat(disj) {
			b.Fatal("union of all paths must be satisfiable")
		}
	}
	b.Run("balanced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			query(group.BalancedOr(conds))
		}
	})
	b.Run("linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			query(group.LinearOr(conds))
		}
	})
}

// BenchmarkAblationStructuredInputs contrasts a structured symbolic
// message (§3.2.1) with the unstructured Short Symb bytes: structure
// buys deep exploration of a single handler instead of shallow dispatch.
func BenchmarkAblationStructuredInputs(b *testing.B) {
	for _, tn := range []string{"Packet Out", "Short Symb"} {
		tn := tn
		b.Run(tn, func(b *testing.B) {
			t, _ := harness.TestByName(tn)
			var paths int
			var cov float64
			for i := 0; i < b.N; i++ {
				r := harness.Explore(refswitch.New(), t, harness.Options{})
				paths = len(r.Paths)
				cov = r.InstrPct
			}
			b.ReportMetric(float64(paths), "paths")
			b.ReportMetric(cov, "instr%")
		})
	}
}

// BenchmarkInjectedDetection regenerates the §5.1.1 experiment on the fast
// tests.
func BenchmarkInjectedDetection(b *testing.B) {
	var detected int
	for i := 0; i < b.N; i++ {
		findings := report.InjectedData(report.Options{Quick: true, CheckBudget: 30 * time.Second})
		detected = 0
		for _, f := range findings {
			if f.Detected {
				detected++
			}
		}
	}
	b.ReportMetric(float64(detected), "detected")
}
