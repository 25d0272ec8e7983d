// The regression example shows §2.4's secondary application: using SOFT as
// an automated regression tester across two versions of one agent. The
// "old version" is the stock Reference Switch; the "new version" carries a
// one-line behavior change (a different error code for output port 0).
// Crosschecking the two versions flags exactly the input subspace whose
// behavior regressed, with a reproducer — no hand-written expectations.
//
// The example doubles as the bring-your-own-agent walkthrough: the v2
// agent is registered with soft.RegisterAgent and then used through the
// same registry lookup the CLI and the built-in agents go through.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"github.com/soft-testing/soft"
	"github.com/soft-testing/soft/internal/agents/refswitch"
)

func main() {
	// A vendor embedding SOFT registers its own agent implementation; here
	// the "new version" is the reference switch with one injected change.
	soft.RegisterAgent("ref-v2", func() soft.Agent {
		return refswitch.NewWithOptions("Reference Switch v2", refswitch.Options{
			PortZeroCode: true, // the regression under test
		})
	})

	ctx := context.Background()
	oldVersion, err := soft.AgentByName("ref")
	if err != nil {
		log.Fatal(err)
	}
	newVersion, err := soft.AgentByName("ref-v2")
	if err != nil {
		log.Fatal(err)
	}

	t, _ := soft.TestByName("Packet Out")
	s := soft.NewSolver()
	fmt.Println("regression-testing Packet Out across two versions of the Reference Switch...")
	rOld, err := soft.Explore(ctx, oldVersion, t, soft.WithModels(true))
	if err != nil {
		log.Fatal(err)
	}
	rNew, err := soft.Explore(ctx, newVersion, t, soft.WithModels(true))
	if err != nil {
		log.Fatal(err)
	}
	rep, err := soft.CrossCheck(ctx, soft.Group(rOld), soft.Group(rNew),
		soft.WithSolver(s), soft.WithBudget(time.Minute))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("old: %d paths; new: %d paths; %d behavioral difference(s)\n\n",
		len(rOld.Paths), len(rNew.Paths), len(rep.Inconsistencies))
	for _, inc := range rep.Inconsistencies {
		fmt.Printf("regression:\n  old: %s\n  new: %s\n  witness: %v\n",
			inc.ACanonical, inc.BCanonical, inc.Witness)
		for i, w := range soft.Reproduce(t, inc.Witness) {
			fmt.Printf("  reproducer input %d: %x\n", i, w)
		}
	}
	if len(rep.Inconsistencies) == 0 {
		fmt.Println("no regressions found")
	}
}
