package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"github.com/soft-testing/soft"
)

func serveCmd() *command {
	return &command{
		name:     "serve",
		synopsis: "coordinate a distributed phase-1 run across soft-work processes",
		run:      runServe,
	}
}

func runServe(e *env, args []string) error {
	fs := newFlags(e, "serve")
	addr := fs.String("addr", "127.0.0.1:7473", "TCP address to listen on (use :0 for an ephemeral port)")
	agentName := fs.String("agent", "ref", "agent under test, by registry name (see 'soft agents'); workers resolve the same name")
	testName := fs.String("test", "Packet Out", "Table 1 test name (see 'soft tests')")
	out := fs.String("o", "", "output file (default stdout)")
	maxPaths := fs.Int("max-paths", 0, "cap on explored paths (0 = default); distributed truncation is canonical")
	models := fs.Bool("models", true, "extract a concrete input example per path")
	incremental := fs.Bool("incremental", true, "workers keep one assumption-stack solver session per exploration worker (results are byte-identical either way)")
	shardDepth := fs.String("shard-depth", "", "frontier split depth: an integer (forks deeper than this become worker shards), or \"auto\" for progress-driven balancing")
	leaseTimeout := fs.Duration("lease-timeout", 0, "re-offer a shard not completed in this long (0 = default, negative = never)")
	canonicalCut := fs.Bool("canonical-cut", true, "keep the canonically smallest max-paths paths instead of the first to complete")
	timeout := fs.Duration("timeout", 0, "wall-clock limit; on expiry the run aborts (distributed partial results are not deterministic)")
	metricsAddr := fs.String("metrics-addr", "", "also serve Prometheus text on http://<addr>/metrics while the run is live (use :0 for an ephemeral port)")
	pprofFlag := fs.Bool("pprof", false, "with -metrics-addr: also mount net/http/pprof under /debug/pprof/")
	traceOut := fs.String("trace", "", "write a Chrome-trace-event JSON of this run's spans — coordinator and workers merged — to this file (results are byte-identical either way)")
	logFormat := logFormatFlag(fs)
	progress := fs.Bool("progress", false, "report lease grants and exploration progress on stderr")
	verbose := fs.Bool("v", false, "report aggregated solver statistics (queries, cache hits, sessions) on stderr")
	if err := parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return usagef("unexpected arguments %q", fs.Args())
	}

	// Validate the job before binding the socket: an unknown name is a
	// usage error (exit 2) here exactly as it is for `soft explore` —
	// workers will resolve the same registry names later.
	if _, err := soft.AgentByName(*agentName); err != nil {
		return usageError{err}
	}
	if _, ok := soft.TestByName(*testName); !ok {
		return usagef("unknown test %q (run 'soft tests')", *testName)
	}
	depth, adaptive, err := parseShardDepth(*shardDepth)
	if err != nil {
		return usageError{err}
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

	if *pprofFlag && *metricsAddr == "" {
		return usagef("-pprof needs -metrics-addr: the profiler rides the metrics endpoint")
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	// The chosen address goes out before any worker could need it — e2e
	// harnesses and humans alike parse this line to start workers.
	fmt.Fprintf(e.stderr, "soft serve: listening on %s\n", ln.Addr())

	if *metricsAddr != "" {
		// The observability endpoint lives on its own listener so the
		// coordinator's worker protocol socket stays protocol-pure. It dies
		// with the run; scrape it while the exploration is live.
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(e.stderr, "soft serve: metrics on http://%s/metrics\n", mln.Addr())
		msrv := &http.Server{Handler: newMetricsMux(*pprofFlag)}
		go msrv.Serve(mln)
		defer msrv.Close()
	}

	opts := []soft.Option{
		soft.WithMaxPaths(*maxPaths),
		soft.WithModels(*models),
		soft.WithIncrementalSolver(*incremental),
		soft.WithShardDepth(depth),
		soft.WithAdaptiveShards(adaptive),
		soft.WithLeaseTimeout(*leaseTimeout),
		soft.WithCanonicalCut(*canonicalCut),
	}
	if *progress {
		opts = append(opts, soft.WithLogger(logger))
		var mu sync.Mutex
		var last time.Time
		opts = append(opts, soft.WithProgress(func(ev soft.Event) {
			mu.Lock()
			defer mu.Unlock()
			if ev.Stats == nil && time.Since(last) < 250*time.Millisecond {
				return
			}
			last = time.Now()
			fmt.Fprintf(e.stderr, "soft serve: %d paths...\n", ev.Done)
		}))
	}
	var flushTrace func() error
	if *traceOut != "" {
		// The trace file carries coordinator spans and every worker's
		// shipped segments, merged into one timeline (see internal/obs).
		flushTrace = startTrace(*traceOut)
	}
	// Version-mismatched workers never surface here: the coordinator
	// refuses them with a reject frame and keeps serving (the worker side
	// is what exits 2 — see runWork).
	res, err := soft.ServeListener(ctx, ln, *agentName, *testName, opts...)
	if flushTrace != nil {
		if ferr := flushTrace(); ferr != nil && err == nil {
			err = ferr
		}
	}
	if err != nil {
		return err
	}

	mark := ""
	if res.Truncated {
		mark = " (max-paths: canonical cut)"
	}
	fmt.Fprintf(e.stderr, "%s / %s: %d paths in %s (coverage %.1f%% instr, %.1f%% branch)%s\n",
		res.Agent, res.Test, len(res.Paths), res.Elapsed.Round(time.Millisecond),
		res.InstrPct, res.BranchPct, mark)
	if *verbose {
		fmt.Fprintf(e.stderr, "soft serve: %s\n", describeStats(res.SolverStats, res.BranchQueries))
	}

	if *out == "" {
		return res.SerializedResult.Write(e.stdout)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := res.SerializedResult.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
