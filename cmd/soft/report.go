package main

import (
	"fmt"
	"time"

	"github.com/soft-testing/soft/internal/report"
)

func reportCmd() *command {
	return &command{
		name:     "report",
		synopsis: "reproduce the paper's evaluation: Tables 1-5, Figure 4, §5.1 experiments",
		run:      runReport,
	}
}

func runReport(e *env, args []string) error {
	fs := newFlags(e, "report")
	table := fs.Int("table", 0, "print one table (1-5)")
	figure := fs.Int("figure", 0, "print one figure (4)")
	injected := fs.Bool("injected", false, "run the §5.1.1 injected-modification experiment")
	inconsistencies := fs.Bool("inconsistencies", false, "run the §5.1.2 ref-vs-ovs classification")
	quick := fs.Bool("quick", false, "skip the slow FlowMod-family tests")
	maxPaths := fs.Int("max-paths", 0, "cap per-test exploration")
	budget := fs.Duration("budget", time.Minute, "per-crosscheck time budget")
	if err := parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return usagef("unexpected arguments %q", fs.Args())
	}
	if *table < 0 || *table > 5 {
		return usagef("tables are 1-5")
	}
	if *figure != 0 && *figure != 4 {
		return usagef("the paper's reproducible figure is 4")
	}
	if *maxPaths < 0 {
		return usagef("-max-paths must not be negative (got %d)", *maxPaths)
	}

	o := report.Options{Quick: *quick, MaxPaths: *maxPaths, CheckBudget: *budget}
	specific := *table != 0 || *figure != 0 || *injected || *inconsistencies

	switch *table {
	case 1:
		fmt.Fprintln(e.stdout, report.Table1())
	case 2:
		fmt.Fprintln(e.stdout, report.Table2(o))
	case 3:
		fmt.Fprintln(e.stdout, report.Table3(o))
	case 4:
		fmt.Fprintln(e.stdout, report.Table4(o))
	case 5:
		fmt.Fprintln(e.stdout, report.Table5(o))
	}
	if *figure == 4 {
		fmt.Fprintln(e.stdout, report.Figure4(o))
	}
	if *injected {
		fmt.Fprintln(e.stdout, report.Injected(o))
	}
	if *inconsistencies {
		fmt.Fprintln(e.stdout, report.Inconsistencies(o))
	}
	if !specific {
		fmt.Fprintln(e.stdout, report.Table1())
		fmt.Fprintln(e.stdout, report.Table2(o))
		fmt.Fprintln(e.stdout, report.Table3(o))
		fmt.Fprintln(e.stdout, report.Table4(o))
		fmt.Fprintln(e.stdout, report.Table5(o))
		fmt.Fprintln(e.stdout, report.Figure4(o))
		fmt.Fprintln(e.stdout, report.Injected(o))
		fmt.Fprintln(e.stdout, report.Inconsistencies(o))
	}
	return nil
}
