package main

import (
	"context"
	"fmt"

	"github.com/soft-testing/soft"
)

func quickstartCmd() *command {
	return &command{
		name:     "quickstart",
		synopsis: "walk the paper's Figure 1 worked example end to end",
		run:      runQuickstart,
	}
}

// The two toy Packet Out handlers of Figure 1: agent 1 supports the
// controller port (0xfffd), agent 2 does not.
//
// Keep in sync with examples/quickstart/main.go: the example is the
// self-contained, public-API-only rendition of the same golden flow
// (kept separate so it stays copy-pasteable documentation), and both
// copies are pinned to the 0xfffd witness — this one by
// TestQuickstartSubcommand, the example by the verify recipe.
func figure1Agent1(ctx *soft.ExecContext) {
	p := ctx.NewSym("port", 16)
	switch {
	case ctx.Branch(soft.EqConst(p, 0xfffd)): // OFPP_CONTROLLER
		ctx.Emit("CTRL")
	case ctx.Branch(soft.Ult(p, soft.Const(16, 25))):
		ctx.Emit("FWD")
	default:
		ctx.Emit("ERR")
	}
}

func figure1Agent2(ctx *soft.ExecContext) {
	p := ctx.NewSym("port", 16)
	if ctx.Branch(soft.Ult(p, soft.Const(16, 25))) {
		ctx.Emit("FWD")
	} else {
		ctx.Emit("ERR")
	}
}

// figure1Result converts a toy handler run into the phase-1 result the
// grouping and crosscheck stages consume: one path per entry, the emitted
// string doubling as the normalized trace.
func figure1Result(agent string, res *soft.HandlerResult) *soft.Result {
	out := &soft.Result{Agent: agent, Test: "Figure 1"}
	for _, p := range res.Paths {
		behavior := p.Outputs[0].(string)
		out.Paths = append(out.Paths, soft.PathResult{
			ID:        p.ID,
			Cond:      p.Condition(),
			Template:  behavior,
			Canonical: behavior,
			Model:     p.Model,
		})
	}
	return out
}

func runQuickstart(e *env, args []string) error {
	fs := newFlags(e, "quickstart")
	if err := parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return usagef("unexpected arguments %q", fs.Args())
	}

	fmt.Fprintln(e.stdout, "SOFT quickstart: the paper's Figure 1 / Figure 2 example.")
	fmt.Fprintln(e.stdout)

	ctx := context.Background()
	results := make([]*soft.Result, 2)
	for i, h := range []soft.Handler{figure1Agent1, figure1Agent2} {
		name := fmt.Sprintf("Agent %d", i+1)
		res, err := soft.ExploreHandler(ctx, h, soft.WithModels(true))
		if err != nil {
			return err
		}
		fmt.Fprintf(e.stdout, "%s: %d paths\n", name, len(res.Paths))
		for _, p := range res.Paths {
			fmt.Fprintf(e.stdout, "  path: output=%-4s condition=%v\n", p.Outputs[0], p.Condition())
		}
		results[i] = figure1Result(name, res)
	}

	fmt.Fprintln(e.stdout, "\nCrosschecking result groups (different outputs, intersecting subspaces):")
	rep, err := soft.CrossCheck(ctx,
		soft.Group(results[0]), soft.Group(results[1]))
	if err != nil {
		return err
	}
	if len(rep.Inconsistencies) == 0 {
		fmt.Fprintln(e.stdout, "  none found")
		return nil
	}
	for _, inc := range rep.Inconsistencies {
		fmt.Fprintf(e.stdout, "  inconsistency: Agent1=%s Agent2=%s at port=%#x\n",
			inc.ACanonical, inc.BCanonical, inc.Witness["port"])
	}
	fmt.Fprintln(e.stdout, "\nAs in the paper: the only inconsistency is the controller port (0xfffd).")
	return nil
}
