// Command soft is the unified CLI for the SOFT pipeline. It replaces the
// former soft-explore, soft-group, soft-diff and soft-report binaries with
// one tool whose subcommands share agent lookup, flag handling, and exit
// conventions:
//
//	soft explore     run phase 1 for one agent and one test
//	soft matrix      run a whole (agents × tests) campaign on one fleet
//	soft campaignd   run the durable always-on campaign service
//	soft submit      submit a campaign job to a campaign service
//	soft jobs        list a campaign service's jobs
//	soft fetch       fetch a finished job's canonical report
//	soft stats       fetch a running service's live metrics
//	soft top         live dashboard over a service's /metrics
//	soft work        explore shard leases for a coordinator fleet
//	soft group       group a results file by output behavior
//	soft diff        crosscheck two results files (phase 2)
//	soft report      reproduce the paper's evaluation tables and figures
//	soft quickstart  the paper's Figure 1 worked example
//	soft agents      list registered agents
//	soft tests       list the evaluation test suite
//
// Exit codes: 0 on success, 1 on runtime errors, 2 on usage errors.
// Errors are reported as "soft <subcommand>: <error>" on stderr.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// env carries the process streams so tests can drive the CLI in-process.
type env struct {
	stdout, stderr io.Writer
}

type command struct {
	name     string
	synopsis string
	run      func(e *env, args []string) error
}

// commands is the dispatch table in help order.
func commands() []*command {
	return []*command{
		exploreCmd(),
		matrixCmd(),
		campaigndCmd(),
		submitCmd(),
		jobsCmd(),
		fetchCmd(),
		statsCmd(),
		topCmd(),
		workCmd(),
		groupCmd(),
		diffCmd(),
		reportCmd(),
		quickstartCmd(),
		agentsCmd(),
		testsCmd(),
		scenariosCmd(),
	}
}

// usageError marks an error that should exit with status 2.
type usageError struct{ err error }

func (u usageError) Error() string { return u.err.Error() }
func (u usageError) Unwrap() error { return u.err }

func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

// errParsePrinted signals that the flag package already reported the
// problem; run exits 2 without a second message.
var errParsePrinted = errors.New("flag parse error already printed")

// newFlags builds a subcommand flag set wired to the environment's stderr.
func newFlags(e *env, name string) *flag.FlagSet {
	fs := flag.NewFlagSet("soft "+name, flag.ContinueOnError)
	fs.SetOutput(e.stderr)
	return fs
}

// parse runs fs over args, normalizing help and parse failures.
func parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return flag.ErrHelp
		}
		return errParsePrinted
	}
	return nil
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: soft <command> [flags] [args]")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "commands:")
	for _, c := range commands() {
		fmt.Fprintf(w, "  %-12s %s\n", c.name, c.synopsis)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "run 'soft <command> -h' for a command's flags")
}

// run dispatches one CLI invocation and returns the process exit code. It
// is the single place exit codes are decided, so no subcommand ever calls
// os.Exit — deferred cleanup (file closes, context cancels) always runs.
func run(args []string, stdout, stderr io.Writer) int {
	e := &env{stdout: stdout, stderr: stderr}
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "help", "-h", "--help":
		usage(stdout)
		return 0
	}
	var cmd *command
	for _, c := range commands() {
		if c.name == args[0] {
			cmd = c
			break
		}
	}
	if cmd == nil {
		fmt.Fprintf(stderr, "soft: unknown command %q\n\n", args[0])
		usage(stderr)
		return 2
	}
	err := cmd.run(e, args[1:])
	var uerr usageError
	switch {
	case err == nil:
		return 0
	case errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errParsePrinted):
		return 2
	case errors.As(err, &uerr):
		fmt.Fprintf(stderr, "soft %s: %s\n", cmd.name, errMessage(err))
		return 2
	default:
		fmt.Fprintf(stderr, "soft %s: %s\n", cmd.name, errMessage(err))
		return 1
	}
}

// errMessage drops the soft library's package prefix: the CLI already
// prefixes every error with "soft <subcommand>:".
func errMessage(err error) string {
	return strings.TrimPrefix(err.Error(), "soft: ")
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
