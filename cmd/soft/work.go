package main

import (
	"context"
	"errors"
	"fmt"

	"github.com/soft-testing/soft"
)

func workCmd() *command {
	return &command{
		name:     "work",
		synopsis: "explore shard leases for a soft matrix -addr fleet",
		run:      runWork,
	}
}

func runWork(e *env, args []string) error {
	fs := newFlags(e, "work")
	addr := fs.String("addr", "127.0.0.1:7473", "coordinator TCP address to connect to")
	workers := fs.Int("workers", 0, "parallel engine workers per shard (0 = GOMAXPROCS, 1 = one worker)")
	name := fs.String("name", "", "worker name in coordinator logs (default hostname/pid)")
	timeout := fs.Duration("timeout", 0, "wall-clock limit; on expiry the current shard is abandoned for re-lease")
	logFormat := logFormatFlag(fs)
	verbose := fs.Bool("v", false, "report lease lifecycle on stderr")
	if err := parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return usagef("unexpected arguments %q", fs.Args())
	}
	logger, err := newCLILogger(e.stderr, *logFormat)
	if err != nil {
		return err
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	opts := []soft.Option{
		soft.WithWorkers(*workers),
		soft.WithWorkerName(*name),
	}
	if *verbose {
		opts = append(opts, soft.WithLogger(logger))
	}
	if err := soft.Work(ctx, *addr, opts...); err != nil {
		if errors.Is(err, soft.ErrProtocolMismatch) {
			// A version mismatch is a deployment problem, not a runtime
			// failure: report it as a usage-level error (exit 2) instead of
			// surfacing a raw decode error.
			return usageError{err}
		}
		return err
	}
	fmt.Fprintln(e.stderr, "soft work: run complete")
	return nil
}
