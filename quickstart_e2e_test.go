package soft

import (
	"context"
	"strings"
	"testing"

	"github.com/soft-testing/soft/internal/agents"
	"github.com/soft-testing/soft/internal/agents/ovs"
	"github.com/soft-testing/soft/internal/agents/refswitch"
	"github.com/soft-testing/soft/internal/crosscheck"
	"github.com/soft-testing/soft/internal/group"
	"github.com/soft-testing/soft/internal/harness"
	"github.com/soft-testing/soft/internal/openflow"
	"github.com/soft-testing/soft/internal/solver"
	"github.com/soft-testing/soft/internal/sym"
	"github.com/soft-testing/soft/internal/symexec"
)

// TestQuickstartFigure1 is the examples/quickstart flow as a library call:
// the paper's §2.3 worked example must end in exactly one inconsistency —
// Agent 1 accepts the controller port where Agent 2 rejects it — with the
// golden witness p = 0xfffd. The exploration runs on 4 workers, so this is
// also an end-to-end check of the parallel engine.
func TestQuickstartFigure1(t *testing.T) {
	agent1 := func(ctx *symexec.Context) {
		p := ctx.NewSym("port", 16)
		switch {
		case ctx.Branch(sym.EqConst(p, uint64(openflow.PortController))):
			ctx.Emit("CTRL")
		case ctx.Branch(sym.Ult(p, sym.Const(16, 25))):
			ctx.Emit("FWD")
		default:
			ctx.Emit("ERR")
		}
	}
	agent2 := func(ctx *symexec.Context) {
		p := ctx.NewSym("port", 16)
		if ctx.Branch(sym.Ult(p, sym.Const(16, 25))) {
			ctx.Emit("FWD")
		} else {
			ctx.Emit("ERR")
		}
	}

	explore := func(h symexec.Handler, wantPaths int) map[string]*sym.Expr {
		eng := &symexec.Engine{Workers: 4}
		res := eng.Run(h)
		if len(res.Paths) != wantPaths {
			t.Fatalf("got %d paths, want %d", len(res.Paths), wantPaths)
		}
		groups := map[string]*sym.Expr{}
		for _, p := range res.Paths {
			out := p.Outputs[0].(string)
			cond := p.Condition()
			if prev, ok := groups[out]; ok {
				cond = sym.LOr(prev, cond)
			}
			groups[out] = cond
		}
		return groups
	}
	g1 := explore(agent1, 3)
	g2 := explore(agent2, 2)

	s := solver.New()
	type finding struct{ out1, out2 string }
	var found []finding
	var witness uint64
	for out1, c1 := range g1 {
		for out2, c2 := range g2 {
			if out1 == out2 {
				continue
			}
			if res, model := s.Check(c1, c2); res == solver.Sat {
				found = append(found, finding{out1, out2})
				witness = model["port"]
			}
		}
	}
	if len(found) != 1 {
		t.Fatalf("got %d inconsistencies, want exactly 1: %v", len(found), found)
	}
	if found[0].out1 != "CTRL" || found[0].out2 != "ERR" {
		t.Fatalf("wrong inconsistency %v, want CTRL vs ERR", found[0])
	}
	if witness != uint64(openflow.PortController) {
		t.Fatalf("witness %#x, want %#x (OFPP_CONTROLLER)", witness, uint64(openflow.PortController))
	}
}

// exploreGrouped runs the full phase-1 + grouping pipeline for one agent,
// with the parallel engine.
func exploreGrouped(t *testing.T, a agents.Agent, test string) *group.Result {
	t.Helper()
	tt, ok := harness.TestByName(test)
	if !ok {
		t.Fatalf("missing test %s", test)
	}
	r := harness.Explore(a, tt, harness.Options{WantModels: true, Workers: 4})
	return group.Paths(r)
}

// TestQuickstartFullPipeline explores both real agent models in parallel,
// groups, crosschecks, and asserts the known §5.1.2 inconsistency classes
// are found: the Packet Out controller-port/set-vlan crash of the reference
// switch, and the silently ignored statistics requests.
func TestQuickstartFullPipeline(t *testing.T) {
	t.Run("Packet Out", func(t *testing.T) {
		ga := exploreGrouped(t, refswitch.New(), "Packet Out")
		gb := exploreGrouped(t, ovs.New(), "Packet Out")
		rep := crosscheck.RunOpts(context.Background(), ga, gb, crosscheck.Opts{Workers: 4})
		if len(rep.Inconsistencies) == 0 {
			t.Fatal("expected inconsistencies")
		}
		crashFound := false
		for _, inc := range rep.Inconsistencies {
			if inc.ACrashed && !inc.BCrashed {
				port := inc.Witness["po.out.port"]
				act := inc.Witness["po.act0.type"]
				if port == 0xfffd || act == 1 {
					crashFound = true
					break
				}
			}
		}
		if !crashFound {
			t.Fatal("controller-port / set-vlan crash inconsistency template not found")
		}
	})
	t.Run("Stats Request", func(t *testing.T) {
		ga := exploreGrouped(t, refswitch.New(), "Stats Request")
		gb := exploreGrouped(t, ovs.New(), "Stats Request")
		rep := crosscheck.RunOpts(context.Background(), ga, gb, crosscheck.Opts{Workers: 4})
		silentFound := false
		for _, inc := range rep.Inconsistencies {
			if inc.ACanonical == "<silent>" && strings.Contains(inc.BCanonical, "ERROR") {
				silentFound = true
				break
			}
		}
		if !silentFound {
			t.Fatal("silent-vs-error inconsistency template not found")
		}
	})
}

// TestCrosscheckParallelMatchesSequential: the fanned-out cross product must
// report the identical inconsistency list, in the same order, as the
// sequential scan.
func TestCrosscheckParallelMatchesSequential(t *testing.T) {
	ga := exploreGrouped(t, refswitch.New(), "Packet Out")
	gb := exploreGrouped(t, ovs.New(), "Packet Out")
	seq := crosscheck.RunOpts(context.Background(), ga, gb, crosscheck.Opts{Workers: 1})
	par := crosscheck.RunOpts(context.Background(), ga, gb, crosscheck.Opts{Workers: 4})
	if seq.Queries != par.Queries {
		t.Fatalf("queries differ: %d vs %d", seq.Queries, par.Queries)
	}
	if len(seq.Inconsistencies) != len(par.Inconsistencies) {
		t.Fatalf("inconsistency counts differ: %d vs %d",
			len(seq.Inconsistencies), len(par.Inconsistencies))
	}
	for i := range seq.Inconsistencies {
		if seq.Inconsistencies[i].String() != par.Inconsistencies[i].String() {
			t.Fatalf("inconsistency %d differs:\n--- seq\n%s\n--- par\n%s",
				i, seq.Inconsistencies[i], par.Inconsistencies[i])
		}
	}
}
