package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"github.com/soft-testing/soft"
)

// The job verbs are thin clients of a `soft campaignd` service: submit
// enqueues a campaign, jobs lists the queue, fetch downloads a canonical
// report. They share the -service flag naming the daemon's base URL.

func submitCmd() *command {
	return &command{
		name:     "submit",
		synopsis: "submit a campaign job to a running campaign service",
		run:      runSubmit,
	}
}

func jobsCmd() *command {
	return &command{
		name:     "jobs",
		synopsis: "list a campaign service's jobs",
		run:      runJobs,
	}
}

func fetchCmd() *command {
	return &command{
		name:     "fetch",
		synopsis: "fetch a finished campaign job's canonical report",
		run:      runFetch,
	}
}

// serviceFlag registers the shared -service flag.
func serviceFlag(fs *flag.FlagSet) *string {
	return fs.String("service", "http://127.0.0.1:7130", "campaign service base URL (see 'soft campaignd')")
}

func runSubmit(e *env, args []string) error {
	fs := newFlags(e, "submit")
	service := serviceFlag(fs)
	agentsFlag := fs.String("agents", "", "comma-separated agent names (default: all registered; see 'soft agents')")
	testsFlag := fs.String("tests", "", "comma-separated Table 1 test names (default: the whole suite; see 'soft tests')")
	maxPaths := fs.Int("max-paths", 0, "cap on explored paths per cell (0 = default); campaign truncation is canonical")
	models := fs.Bool("models", true, "extract a concrete input example per path")
	crossCheck := fs.Bool("crosscheck", true, "run phase 2 over every agent pair per test")
	codeVersion := fs.String("code-version", "", "override the job's cache-key code version (default: the service's)")
	watch := fs.Bool("watch", false, "stream progress and wait for the job to finish")
	out := fs.String("o", "", "with -watch: write the canonical report to this file once done")
	if err := parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return usagef("unexpected arguments %q", fs.Args())
	}
	if *out != "" && !*watch {
		return usagef("-o needs -watch (or use 'soft fetch' once the job is done)")
	}
	if *maxPaths < 0 {
		return usagef("-max-paths must not be negative (got %d)", *maxPaths)
	}
	// Validate names client-side so typos are usage errors (exit 2) like
	// everywhere else; the service re-validates on submission.
	agents := splitList(*agentsFlag)
	tests := splitList(*testsFlag)
	for _, a := range agents {
		if _, err := soft.AgentByName(a); err != nil {
			return usageError{err}
		}
	}
	for _, t := range tests {
		if _, ok := soft.TestByName(t); !ok {
			return usagef("unknown test %q (run 'soft tests')", t)
		}
	}

	ctx := context.Background()
	cl := soft.NewCampaignClient(*service)
	job, err := cl.Submit(ctx, soft.CampaignJobSpec{
		Agents:      agents,
		Tests:       tests,
		MaxPaths:    *maxPaths,
		Models:      *models,
		CrossCheck:  *crossCheck,
		CodeVersion: *codeVersion,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(e.stdout, "submitted %s (%d agents × %d tests)\n",
		job.ID, len(job.Spec.Agents), len(job.Spec.Tests))
	if !*watch {
		return nil
	}

	final, err := cl.Watch(ctx, job.ID, func(ev soft.CampaignEvent) {
		if ev.Total > 0 {
			fmt.Fprintf(e.stderr, "soft submit: %s %s: %d/%d work units\n", ev.Job, ev.State, ev.Done, ev.Total)
		} else {
			fmt.Fprintf(e.stderr, "soft submit: %s %s\n", ev.Job, ev.State)
		}
	})
	if err != nil {
		return err
	}
	if final.State != soft.CampaignDone {
		return fmt.Errorf("job %s %s: %s", final.ID, final.State, final.Error)
	}
	fmt.Fprintf(e.stdout, "%s done: %d inconsistencies\n", final.ID, final.Inconsistencies)
	if *out != "" {
		data, err := cl.Report(ctx, final.ID)
		if err != nil {
			return err
		}
		return os.WriteFile(*out, data, 0o644)
	}
	return nil
}

func runJobs(e *env, args []string) error {
	fs := newFlags(e, "jobs")
	service := serviceFlag(fs)
	cancel := fs.String("cancel", "", "cancel this job id (queued: dequeued; running: aborted) instead of listing")
	if err := parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return usagef("unexpected arguments %q", fs.Args())
	}
	cl := soft.NewCampaignClient(*service)
	if *cancel != "" {
		j, err := cl.Cancel(context.Background(), *cancel)
		if err != nil {
			return err
		}
		fmt.Fprintf(e.stdout, "cancelled %s\n", j.ID)
		return nil
	}
	jobs, err := cl.Jobs(context.Background())
	if err != nil {
		return err
	}
	if len(jobs) == 0 {
		fmt.Fprintln(e.stdout, "no jobs")
		return nil
	}
	tw := tabwriter.NewWriter(e.stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "JOB\tSTATE\tMATRIX\tPROGRESS\tWAIT\tRUN\tRESTARTS\tSUBMITTED")
	now := time.Now()
	for _, j := range jobs {
		progress := "-"
		if j.Total > 0 {
			progress = fmt.Sprintf("%d/%d", j.Done, j.Total)
		}
		detail := string(j.State)
		if j.State == soft.CampaignFailed && j.Error != "" {
			detail += ": " + ellipsis(j.Error, 40)
		}
		fmt.Fprintf(tw, "%s\t%s\t%d×%d\t%s\t%s\t%s\t%d\t%s\n",
			j.ID, detail,
			len(j.Spec.Agents), len(j.Spec.Tests),
			progress, queueWait(j, now), runTime(j, now), j.Restarts,
			time.Unix(j.SubmittedUnix, 0).UTC().Format("2006-01-02 15:04:05"))
	}
	return tw.Flush()
}

// queueWait derives a job's submission → dispatch wait from the journal
// timestamps ("-" before either phase; still counting for queued jobs).
func queueWait(j *soft.CampaignJob, now time.Time) string {
	switch {
	case j.StartedUnix > 0:
		return fmtSeconds(j.StartedUnix - j.SubmittedUnix)
	case j.SubmittedUnix > 0:
		return fmtSeconds(now.Unix() - j.SubmittedUnix)
	}
	return "-"
}

// runTime derives a job's dispatch → terminal duration (still counting for
// running jobs).
func runTime(j *soft.CampaignJob, now time.Time) string {
	switch {
	case j.StartedUnix > 0 && j.FinishedUnix > 0:
		return fmtSeconds(j.FinishedUnix - j.StartedUnix)
	case j.StartedUnix > 0:
		return fmtSeconds(now.Unix() - j.StartedUnix)
	}
	return "-"
}

func fmtSeconds(s int64) string {
	if s < 0 {
		s = 0
	}
	return (time.Duration(s) * time.Second).String()
}

func ellipsis(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return strings.TrimSpace(s[:n]) + "..."
}

func runFetch(e *env, args []string) error {
	fs := newFlags(e, "fetch")
	service := serviceFlag(fs)
	out := fs.String("o", "", "write the report to this file (default: stdout)")
	if err := parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return usagef("usage: soft fetch [flags] <job-id>")
	}
	id := fs.Arg(0)
	cl := soft.NewCampaignClient(*service)
	data, err := cl.Report(context.Background(), id)
	if err != nil {
		return err
	}
	if *out != "" {
		return os.WriteFile(*out, data, 0o644)
	}
	_, err = e.stdout.Write(data)
	return err
}
