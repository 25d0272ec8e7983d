package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/soft-testing/soft"
	"github.com/soft-testing/soft/internal/obs"
	"github.com/soft-testing/soft/internal/store"
)

func matrixCmd() *command {
	return &command{
		name:     "matrix",
		synopsis: "run a campaign: explore every (agent, test) cell, crosscheck every agent pair",
		run:      runMatrix,
	}
}

// splitList parses a comma-separated flag value, trimming whitespace and
// dropping empties. An empty value means "all".
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func runMatrix(e *env, args []string) error {
	fs := newFlags(e, "matrix")
	agentsFlag := fs.String("agents", "", "comma-separated agent names (default: all registered; see 'soft agents')")
	testsFlag := fs.String("tests", "", "comma-separated Table 1 test names (default: the whole suite; see 'soft tests')")
	scenariosFlag := fs.String("scenarios", "", "comma-separated scenario names to add as matrix columns (\"all\" = every registered scenario; accepts gen:<index>)")
	addr := fs.String("addr", "", "listen for a soft-work fleet on this TCP address (use :0 for an ephemeral port); empty explores in-process")
	workers := fs.Int("workers", 0, "in-process parallelism: exploration workers per cell (fleetless) and crosscheck solver workers (0 = GOMAXPROCS)")
	maxPaths := fs.Int("max-paths", 0, "cap on explored paths per cell (0 = default); campaign truncation is canonical")
	models := fs.Bool("models", true, "extract a concrete input example per path")
	storeDir := fs.String("store", "", "result-store directory: cache cell results and groupings, skip unchanged cells on re-runs")
	codeVersion := fs.String("code-version", "", "override the cache key's code version (default: the binary's VCS build stamp)")
	storeMigrate := fs.Bool("store-migrate", false, "re-stamp a store recorded under a different code version instead of refusing it")
	service := fs.String("service", "", "run the campaign on this campaign service (base URL; see 'soft campaignd') instead of in-process")
	tenant := fs.String("tenant", "", "tenant name for -service jobs (default \"default\")")
	shardDepth := fs.Int("shard-depth", 0, "fleet frontier split depth: forks deeper than this become worker shards (0 = default)")
	leaseTimeout := fs.Duration("lease-timeout", 0, "re-offer a fleet shard not completed in this long (0 = default, negative = never)")
	crossCheck := fs.Bool("crosscheck", true, "run phase 2 over every agent pair per test (false: explore and cache cells only)")
	budget := fs.Duration("budget", 0, "time budget per pair check (0 = unlimited; a budget can make checks partial and reports non-reproducible)")
	resultsDir := fs.String("results-dir", "", "also write each cell's results file into this directory")
	out := fs.String("o", "", "write the canonical campaign report to this file (byte-identical across reruns)")
	traceOut := fs.String("trace", "", "write a Chrome-trace-event JSON of this campaign's spans to this file (load in Perfetto; results are byte-identical either way)")
	timeout := fs.Duration("timeout", 0, "wall-clock limit; on expiry the campaign aborts")
	metricsAddr := fs.String("metrics-addr", "", "also serve Prometheus text on http://<addr>/metrics while the campaign is live (use :0 for an ephemeral port)")
	pprofFlag := fs.Bool("pprof", false, "with -metrics-addr: also mount net/http/pprof under /debug/pprof/")
	progress := fs.Bool("progress", false, "report fleet lifecycle and cell/check progress on stderr")
	verbose := fs.Bool("v", false, "report cache, fleet, and solver statistics on stderr")
	if err := parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return usagef("unexpected arguments %q", fs.Args())
	}

	agents := splitList(*agentsFlag)
	tests := splitList(*testsFlag)
	// Validate names up front so mistakes are usage errors (exit 2), as in
	// every other subcommand.
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
	var scenarios []string
	if *scenariosFlag == "all" {
		scenarios = soft.ScenarioNames()
	} else {
		scenarios = splitList(*scenariosFlag)
		for _, sc := range scenarios {
			if _, ok := soft.ScenarioByName(sc); !ok {
				return usagef("unknown scenario %q (run 'soft scenarios')", sc)
			}
		}
	}
	if *shardDepth < 0 {
		return usagef("-shard-depth must not be negative (got %d)", *shardDepth)
	}
	if *pprofFlag && *metricsAddr == "" {
		return usagef("-pprof needs -metrics-addr: the profiler rides the metrics endpoint")
	}
	if *service != "" {
		// A service-side campaign owns its own store and fleet; the
		// client-side equivalents would silently do nothing.
		for flagName, set := range map[string]bool{
			"-store": *storeDir != "", "-addr": *addr != "", "-results-dir": *resultsDir != "",
		} {
			if set {
				return usagef("%s cannot be combined with -service: the campaign service owns the store and fleet (and reports carry no raw results)", flagName)
			}
		}
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	opts := []soft.Option{
		soft.WithScenarios(scenarios...),
		soft.WithWorkers(*workers),
		soft.WithMaxPaths(*maxPaths),
		soft.WithModels(*models),
		soft.WithShardDepth(*shardDepth),
		soft.WithLeaseTimeout(*leaseTimeout),
		soft.WithCrossCheck(*crossCheck),
		soft.WithBudget(*budget),
	}
	if *storeDir != "" {
		// Refuse (exit 2) a store stamped for a different code version
		// before any work happens — reusing it would miss every entry, or
		// worse, collide when both stamps are the "unversioned" fallback.
		st, err := store.Open(*storeDir)
		if err != nil {
			return err
		}
		cv := *codeVersion
		if cv == "" {
			cv = store.DefaultCodeVersion()
		}
		if err := ensureStoreVersion(st, cv, *storeMigrate); err != nil {
			return err
		}
		opts = append(opts, soft.WithStore(*storeDir))
	}
	if *codeVersion != "" {
		opts = append(opts, soft.WithCodeVersion(*codeVersion))
	}
	if *service != "" {
		opts = append(opts, soft.WithCampaignService(*service))
		if *tenant != "" {
			opts = append(opts, soft.WithTenant(*tenant))
		}
	}
	if *metricsAddr != "" {
		// The observability endpoint lives on its own listener so the
		// fleet's worker protocol socket stays protocol-pure. It dies with
		// the campaign; scrape it while the campaign is live.
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(e.stderr, "soft matrix: metrics on http://%s/metrics\n", mln.Addr())
		msrv := &http.Server{Handler: newMetricsMux(*pprofFlag)}
		go msrv.Serve(mln)
		defer msrv.Close()
	}
	if *addr != "" {
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			return err
		}
		// The chosen address goes out before any worker could need it —
		// e2e harnesses and humans alike parse this line to start workers.
		fmt.Fprintf(e.stderr, "soft matrix: listening on %s\n", ln.Addr())
		opts = append(opts, soft.WithFleetListener(ln))
	}
	if *progress {
		opts = append(opts, soft.WithLogger(obs.NewLogger(e.stderr, obs.LogText)))
		var mu sync.Mutex
		var last time.Time
		opts = append(opts, soft.WithProgress(func(ev soft.Event) {
			mu.Lock()
			defer mu.Unlock()
			if ev.Done < ev.Total && time.Since(last) < 250*time.Millisecond {
				return
			}
			last = time.Now()
			fmt.Fprintf(e.stderr, "soft matrix: %d/%d work units...\n", ev.Done, ev.Total)
		}))
	}

	var flushTrace func() error
	if *traceOut != "" {
		flushTrace = startTrace(*traceOut)
	}
	rep, err := soft.RunMatrix(ctx, agents, tests, opts...)
	if flushTrace != nil {
		if ferr := flushTrace(); ferr != nil && err == nil {
			err = ferr
		}
	}
	if err != nil {
		return err
	}

	// Human-readable summary: deterministic content plus run annotations
	// (cache markers) that describe this run, not the result.
	fmt.Fprintf(e.stdout, "matrix %s × %s: %d cells (%d explored, %d cached)\n",
		strings.Join(rep.Agents, ","), strings.Join(rep.Tests, ","),
		len(rep.Cells), rep.CacheMisses, rep.CacheHits)
	for i := range rep.Cells {
		c := &rep.Cells[i]
		mark := ""
		if c.CacheHit {
			mark = " [cached]"
		}
		if c.Truncated {
			mark += " [truncated]"
		}
		// The cell's summary fields work for local and service runs alike;
		// service reports carry no raw Result.
		fmt.Fprintf(e.stdout, "cell %s / %s: %d paths (coverage %.1f%% instr, %.1f%% branch)%s\n",
			c.Agent, c.Test, c.Paths, c.InstrPct, c.BranchPct, mark)
	}
	for i := range rep.Checks {
		c := &rep.Checks[i]
		partial := ""
		if c.Report.Partial {
			partial = " (partial)"
		}
		fmt.Fprintf(e.stdout, "check %s: %s vs %s: %d inconsistencies, ~%d root causes (%d×%d groups, %d queries)%s\n",
			c.Test, c.AgentA, c.AgentB, len(c.Report.Inconsistencies), c.Report.RootCauses(),
			c.GroupsA, c.GroupsB, c.Report.Queries, partial)
	}
	if *verbose {
		fmt.Fprintf(e.stderr, "soft matrix: result store: %d hits, %d misses; grouping cache: %d hits, %d misses\n",
			rep.CacheHits, rep.CacheMisses, rep.GroupCacheHits, rep.GroupCacheMisses)
		if fsStats := rep.FleetStats; fsStats != nil {
			fmt.Fprintf(e.stderr, "soft matrix: fleet: %d workers (%d rejected), %d jobs, %d leases (%d batched, %d shards), %d re-queues, %d expirations, %d stale results\n",
				fsStats.WorkersJoined, fsStats.WorkersRejected, fsStats.JobsCompleted,
				fsStats.Leases, fsStats.BatchedLeases, fsStats.ShardsLeased,
				fsStats.Requeues, fsStats.Expirations, fsStats.StaleResults)
		}
		fmt.Fprintf(e.stderr, "soft matrix: %s\n", describeStats(rep.SolverStats, rep.BranchQueries))
		fmt.Fprintf(e.stderr, "soft matrix: campaign completed in %s\n", rep.Elapsed.Round(time.Millisecond))
	}

	if *resultsDir != "" {
		if err := os.MkdirAll(*resultsDir, 0o755); err != nil {
			return err
		}
		for i := range rep.Cells {
			c := &rep.Cells[i]
			path := filepath.Join(*resultsDir, cellFileName(c.Agent, c.Test))
			if err := writeResultFile(path, c); err != nil {
				return err
			}
		}
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		if err := rep.Write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// cellFileName renders a filesystem-safe per-cell results file name.
func cellFileName(agent, test string) string {
	clean := func(s string) string {
		return strings.Map(func(r rune) rune {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
				return r
			default:
				return '_'
			}
		}, s)
	}
	return clean(agent) + "--" + clean(test) + ".results"
}

func writeResultFile(path string, c *soft.MatrixCell) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.Result.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
