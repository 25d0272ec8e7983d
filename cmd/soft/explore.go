package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"github.com/soft-testing/soft"
)

func exploreCmd() *command {
	return &command{
		name:     "explore",
		synopsis: "run phase 1: symbolically execute one agent on one test",
		run:      runExplore,
	}
}

func runExplore(e *env, args []string) error {
	fs := newFlags(e, "explore")
	agentName := fs.String("agent", "ref", "agent under test (see 'soft agents')")
	testName := fs.String("test", "Packet Out", "Table 1 test name (see 'soft tests')")
	scenarioName := fs.String("scenario", "", "scenario name instead of -test (see 'soft scenarios'; accepts gen:<index>)")
	out := fs.String("o", "", "output file (default stdout)")
	maxPaths := fs.Int("max-paths", 0, "cap on explored paths (0 = default)")
	models := fs.Bool("models", true, "write each path's canonical model, a concrete input example, to the results (explores the same either way)")
	workers := fs.Int("workers", 0, "parallel exploration workers (0 = GOMAXPROCS, 1 = one worker)")
	canonicalCut := fs.Bool("canonical-cut", false, "make max-paths truncation canonical: keep the canonically smallest paths so truncated runs are reproducible across worker counts")
	timeout := fs.Duration("timeout", 0, "wall-clock limit; on expiry the partial result is still written")
	progress := fs.Bool("progress", false, "report exploration progress on stderr")
	verbose := fs.Bool("v", false, "report solver statistics (branch queries, sessions, interning) on stderr")
	traceOut := fs.String("trace", "", "write a Chrome-trace-event JSON of this run's spans to this file (load in Perfetto; results are byte-identical either way)")
	if err := parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return usagef("unexpected arguments %q", fs.Args())
	}
	if *maxPaths < 0 {
		return usagef("-max-paths must not be negative (got %d)", *maxPaths)
	}

	a, err := soft.AgentByName(*agentName)
	if err != nil {
		return usageError{err}
	}
	var explicitTest bool
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "test" {
			explicitTest = true
		}
	})
	var t soft.Test
	if *scenarioName != "" {
		if explicitTest {
			return usagef("-test and -scenario are mutually exclusive")
		}
		sc, ok := soft.ScenarioByName(*scenarioName)
		if !ok {
			return usagef("unknown scenario %q (run 'soft scenarios')", *scenarioName)
		}
		t = sc.Test()
	} else {
		var ok bool
		t, ok = soft.TestByName(*testName)
		if !ok {
			return usagef("unknown test %q (run 'soft tests')", *testName)
		}
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	opts := []soft.Option{
		soft.WithMaxPaths(*maxPaths),
		soft.WithModels(*models),
		soft.WithWorkers(*workers),
		soft.WithCanonicalCut(*canonicalCut),
	}
	if *progress {
		// Throttle by time, not path count: short runs still get feedback
		// and huge runs don't flood stderr. The callback may fire from
		// several workers, hence the mutex.
		var mu sync.Mutex
		var last time.Time
		opts = append(opts, soft.WithProgress(func(ev soft.Event) {
			mu.Lock()
			defer mu.Unlock()
			if time.Since(last) < 250*time.Millisecond {
				return
			}
			last = time.Now()
			fmt.Fprintf(e.stderr, "soft explore: %d paths...\n", ev.Done)
		}))
	}
	var flushTrace func() error
	if *traceOut != "" {
		flushTrace = startTrace(*traceOut)
	}
	res, err := soft.Explore(ctx, a, t, opts...)
	if flushTrace != nil {
		if ferr := flushTrace(); ferr != nil && err == nil {
			err = ferr
		}
	}
	if err != nil {
		return err
	}

	mark := ""
	if res.Cancelled {
		mark = " (timeout: partial)"
	} else if res.Truncated {
		mark = " (max-paths: partial)"
	}
	fmt.Fprintf(e.stderr, "%s / %s: %d paths in %s (coverage %.1f%% instr, %.1f%% branch)%s\n",
		res.Agent, res.Test, len(res.Paths), res.Elapsed.Round(time.Millisecond),
		res.InstrPct, res.BranchPct, mark)
	if *verbose {
		fmt.Fprintf(e.stderr, "soft explore: %s\n", describeStats(res.SolverStats, res.BranchQueries))
	}

	if *out == "" {
		return res.Write(e.stdout)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := res.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func agentsCmd() *command {
	return &command{
		name:     "agents",
		synopsis: "list registered agents",
		run: func(e *env, args []string) error {
			fs := newFlags(e, "agents")
			if err := parse(fs, args); err != nil {
				return err
			}
			if fs.NArg() != 0 {
				return usagef("unexpected arguments %q", fs.Args())
			}
			for _, name := range soft.Agents() {
				a, err := soft.AgentByName(name)
				if err != nil {
					return err
				}
				fmt.Fprintf(e.stdout, "%-10s %s\n", name, a.Name())
			}
			return nil
		},
	}
}

func scenariosCmd() *command {
	return &command{
		name:     "scenarios",
		synopsis: "list the registered stateful multi-message scenarios",
		run: func(e *env, args []string) error {
			fs := newFlags(e, "scenarios")
			if err := parse(fs, args); err != nil {
				return err
			}
			if fs.NArg() != 0 {
				return usagef("unexpected arguments %q", fs.Args())
			}
			for _, sc := range soft.Scenarios() {
				fmt.Fprintf(e.stdout, "%-22s %s\n", sc.Name, sc.Desc)
			}
			fmt.Fprintf(e.stdout, "%-22s %s\n",
				fmt.Sprintf("gen:0 .. gen:%d", soft.GeneratedScenarioCount()-1),
				"Deterministic bounded step-sequence templates (resolved by index, no registration needed).")
			return nil
		},
	}
}

func testsCmd() *command {
	return &command{
		name:     "tests",
		synopsis: "list the evaluation test suite (Table 1)",
		run: func(e *env, args []string) error {
			fs := newFlags(e, "tests")
			if err := parse(fs, args); err != nil {
				return err
			}
			if fs.NArg() != 0 {
				return usagef("unexpected arguments %q", fs.Args())
			}
			for _, t := range soft.Tests() {
				fmt.Fprintf(e.stdout, "%-14s %s\n", t.Name, t.Desc)
			}
			return nil
		},
	}
}
