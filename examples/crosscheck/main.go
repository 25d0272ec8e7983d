// The crosscheck example reproduces the paper's headline experiment
// (§5.1.2) against the public soft API: it runs the Table 1 suite's fast
// tests over the Reference Switch and Open vSwitch models, crosschecks the
// results, and prints each inconsistency class with a concrete reproducer
// — the same findings the paper reports (crashes, silent drops, missing
// error messages, validation order, missing features).
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"github.com/soft-testing/soft"
)

func main() {
	ctx := context.Background()
	ref, err := soft.AgentByName("ref")
	if err != nil {
		log.Fatal(err)
	}
	ov, err := soft.AgentByName("ovs")
	if err != nil {
		log.Fatal(err)
	}
	// One shared solver: its query cache carries over between the
	// crosschecks.
	s := soft.NewSolver()
	tests := []string{"Packet Out", "Stats Request", "Set Config", "Short Symb"}

	classTotals := map[string]int{}
	classExample := map[string]soft.Inconsistency{}
	classTest := map[string]string{}
	for _, name := range tests {
		t, _ := soft.TestByName(name)
		fmt.Printf("exploring %-14s ", name)
		ra, err := soft.Explore(ctx, ref, t, soft.WithModels(true))
		if err != nil {
			log.Fatal(err)
		}
		rb, err := soft.Explore(ctx, ov, t, soft.WithModels(true))
		if err != nil {
			log.Fatal(err)
		}
		rep, err := soft.CrossCheck(ctx, soft.Group(ra), soft.Group(rb),
			soft.WithSolver(s), soft.WithBudget(time.Minute))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("ref %4d paths, ovs %4d paths -> %3d inconsistencies (~%d root causes)\n",
			len(ra.Paths), len(rb.Paths), len(rep.Inconsistencies), rep.RootCauses())
		for _, inc := range rep.Inconsistencies {
			c := soft.Classify(inc)
			classTotals[c]++
			if _, ok := classExample[c]; !ok {
				classExample[c] = inc
				classTest[c] = name
			}
		}
	}

	fmt.Println("\nInconsistency classes found (§5.1.2):")
	for c, n := range classTotals {
		fmt.Printf("\n* %s (%d instances)\n", c, n)
		inc := classExample[c]
		fmt.Printf("    Reference Switch: %s\n", firstLine(inc.ACanonical))
		fmt.Printf("    Open vSwitch:     %s\n", firstLine(inc.BCanonical))
		t, _ := soft.TestByName(classTest[c])
		for i, w := range soft.Reproduce(t, inc.Witness) {
			fmt.Printf("    reproducer input %d: %x\n", i, w)
		}
	}
}

func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i] + " ..."
		}
	}
	return s
}
