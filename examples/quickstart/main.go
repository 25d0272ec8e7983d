// The quickstart example walks through the paper's §2.3 worked example
// against the public soft API: two toy Packet Out handlers (Figure 1's
// Agent 1 and Agent 2) are symbolically executed with soft.ExploreHandler,
// their paths grouped by output behavior, and soft.CrossCheck finds the
// single inconsistency — Agent 1 sends port OFPP_CONTROLLER to the
// controller while Agent 2 rejects it — and produces the concrete witness
// p = 0xfffd.
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/soft-testing/soft"
)

// Keep in sync with cmd/soft/quickstart.go: the `soft quickstart`
// subcommand runs the same golden flow; this copy stays self-contained
// (public API only) so it doubles as copy-pasteable documentation. Both
// are pinned to the 0xfffd witness by the test/verify gates.

// agent1 is Figure 1's left handler: it supports the controller port.
func agent1(ctx *soft.ExecContext) {
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

// agent2 is Figure 1's right handler: no controller-port support.
func agent2(ctx *soft.ExecContext) {
	p := ctx.NewSym("port", 16)
	if ctx.Branch(soft.Ult(p, soft.Const(16, 25))) {
		ctx.Emit("FWD")
	} else {
		ctx.Emit("ERR")
	}
}

// explore runs one toy handler and shapes its paths into the phase-1
// result form the grouping and crosscheck stages consume: the emitted
// string is the normalized trace, the path condition travels alongside.
func explore(ctx context.Context, name string, h soft.Handler) *soft.Grouped {
	res, err := soft.ExploreHandler(ctx, h, soft.WithModels(true))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d paths\n", name, len(res.Paths))
	r := &soft.Result{Agent: name, Test: "Figure 1"}
	for _, p := range res.Paths {
		out := p.Outputs[0].(string)
		fmt.Printf("  path: output=%-4s condition=%v\n", out, p.Condition())
		r.Paths = append(r.Paths, soft.PathResult{
			ID: p.ID, Cond: p.Condition(), Template: out, Canonical: out, Model: p.Model,
		})
	}
	return soft.Group(r)
}

func main() {
	fmt.Println("SOFT quickstart: the paper's Figure 1 / Figure 2 example.")
	fmt.Println()
	ctx := context.Background()
	g1 := explore(ctx, "Agent 1", agent1)
	g2 := explore(ctx, "Agent 2", agent2)

	fmt.Println("\nCrosschecking result groups (different outputs, intersecting subspaces):")
	rep, err := soft.CrossCheck(ctx, g1, g2)
	if err != nil {
		log.Fatal(err)
	}
	if len(rep.Inconsistencies) == 0 {
		fmt.Println("  none found")
		return
	}
	for _, inc := range rep.Inconsistencies {
		fmt.Printf("  inconsistency: Agent1=%s Agent2=%s at port=%#x\n",
			inc.ACanonical, inc.BCanonical, inc.Witness["port"])
	}
	fmt.Println("\nAs in the paper: the only inconsistency is the controller port (0xfffd).")
}
