package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/soft-testing/soft"
)

func diffCmd() *command {
	return &command{
		name:     "diff",
		synopsis: "run phase 2: crosscheck two results files for inconsistencies",
		run:      runDiff,
	}
}

// loadResults reads one phase-1 results file.
func loadResults(path string) (*soft.SerializedResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	res, err := soft.ReadResults(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return res, nil
}

// warnPartial notes on stderr when a results file holds a partial path
// set: inconsistencies on the unexplored paths are invisible to the diff.
func warnPartial(e *env, path string, res *soft.SerializedResult) {
	if res.Truncated || res.Cancelled {
		fmt.Fprintf(e.stderr, "soft diff: note: %s is a partial result (%s exploration); inconsistencies on unexplored paths cannot be reported\n",
			path, partialCause(res))
	}
}

func partialCause(res *soft.SerializedResult) string {
	if res.Cancelled {
		return "cancelled"
	}
	return "truncated"
}

func runDiff(e *env, args []string) error {
	fs := newFlags(e, "diff")
	budget := fs.Duration("budget", 0, "time budget for the check (0 = unlimited)")
	reproduce := fs.Bool("reproduce", false, "render a reproducer message per inconsistency")
	workers := fs.Int("workers", 0, "parallel crosscheck workers (0 = GOMAXPROCS, 1 = one worker)")
	timeout := fs.Duration("timeout", 0, "hard wall-clock limit; on expiry the partial report is still printed")
	verbose := fs.Bool("v", false, "report solver statistics (queries, solve time, session reuse)")
	if err := parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return usagef("want exactly two results files, got %d (usage: soft diff [flags] a-results.txt b-results.txt)", fs.NArg())
	}
	ra, err := loadResults(fs.Arg(0))
	if err != nil {
		return err
	}
	rb, err := loadResults(fs.Arg(1))
	if err != nil {
		return err
	}
	warnPartial(e, fs.Arg(0), ra)
	warnPartial(e, fs.Arg(1), rb)
	ga, gb := soft.GroupSerialized(ra), soft.GroupSerialized(rb)

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	rep, err := soft.CrossCheck(ctx, ga, gb,
		soft.WithBudget(*budget), soft.WithWorkers(*workers))
	if err != nil {
		return usageError{err}
	}

	partial := ""
	if rep.Cancelled {
		partial = " (timeout: partial)"
	} else if rep.Partial {
		partial = " (budget expired: partial)"
	}
	fmt.Fprintf(e.stdout, "%s vs %s on %s: %d inconsistencies, ~%d root causes, %d solver queries in %s%s\n",
		rep.AgentA, rep.AgentB, rep.Test, len(rep.Inconsistencies), rep.RootCauses(),
		rep.Queries, rep.Elapsed.Round(time.Millisecond), partial)
	if *verbose {
		fmt.Fprintf(e.stderr, "soft diff: %s\n", describeStats(rep.SolverStats, -1))
	}
	for k, inc := range rep.Inconsistencies {
		fmt.Fprintf(e.stdout, "\n#%d %s\n", k, inc)
		if *reproduce {
			t, ok := soft.TestByName(rep.Test)
			if !ok {
				continue
			}
			wires := soft.Reproduce(t, inc.Witness)
			labels := soft.DescribeReproducer(t, wires)
			for i, w := range wires {
				fmt.Fprintf(e.stdout, "  input %d (%s): %x\n", i, labels[i], w)
			}
		}
	}
	return nil
}

func groupCmd() *command {
	return &command{
		name:     "group",
		synopsis: "group a results file by distinct output behavior",
		run:      runGroup,
	}
}

func runGroup(e *env, args []string) error {
	fs := newFlags(e, "group")
	verbose := fs.Bool("v", false, "print each group's condition size")
	if err := parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return usagef("want exactly one results file, got %d (usage: soft group [-v] results.txt)", fs.NArg())
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	res, err := soft.ReadResults(f)
	if err != nil {
		return fmt.Errorf("%s: %w", fs.Arg(0), err)
	}
	g := soft.GroupSerialized(res)
	partial := ""
	if res.Truncated || res.Cancelled {
		partial = fmt.Sprintf(" [%s exploration: partial]", partialCause(res))
	}
	fmt.Fprintf(e.stdout, "%s / %s: %d paths -> %d distinct output results (grouped in %s)%s\n",
		g.Agent, g.Test, len(res.Paths), len(g.Groups), g.Elapsed.Round(time.Microsecond), partial)
	for i, gr := range g.Groups {
		crash := ""
		if gr.Crashed {
			crash = "  [CRASH]"
		}
		fmt.Fprintf(e.stdout, "\n[%d] %d path(s)%s\n", i, gr.PathCount, crash)
		for _, line := range strings.Split(gr.Canonical, "\n") {
			fmt.Fprintf(e.stdout, "    %s\n", line)
		}
		if *verbose {
			fmt.Fprintf(e.stdout, "    condition: %d boolean ops\n", gr.Cond.Size())
		}
	}
	return nil
}
