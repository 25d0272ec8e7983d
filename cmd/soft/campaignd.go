package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"github.com/soft-testing/soft/internal/campaignd"
	"github.com/soft-testing/soft/internal/dist"
	"github.com/soft-testing/soft/internal/store"
)

func campaigndCmd() *command {
	return &command{
		name:     "campaignd",
		synopsis: "run the durable always-on campaign service (submit jobs with 'soft submit')",
		run:      runCampaignd,
	}
}

func runCampaignd(e *env, args []string) error {
	fs := newFlags(e, "campaignd")
	addr := fs.String("addr", "127.0.0.1:7130", "HTTP API address (use :0 for an ephemeral port)")
	storeDir := fs.String("store", "", "result-store directory (required): caches cell results and hosts the durable job journal")
	fleetAddr := fs.String("fleet-addr", "", "also listen for a soft-work fleet on this TCP address; every job's non-cached cells run on it")
	codeVersion := fs.String("code-version", "", "override the cache key's code version (default: the binary's VCS build stamp)")
	storeMigrate := fs.Bool("store-migrate", false, "re-stamp a store recorded under a different code version instead of refusing it")
	maxActive := fs.Int("max-active", 0, "concurrently running jobs (0 = default 2); queued jobs wait in submission order")
	retain := fs.Int("retain", 0, "keep only the newest N terminal job records, pruning older ones at startup and as jobs finish (0 = keep all)")
	workers := fs.Int("workers", 0, "in-process parallelism per job (0 = GOMAXPROCS)")
	shardDepth := fs.Int("shard-depth", 0, "fleet frontier split depth: forks deeper than this become worker shards (0 = default)")
	leaseTimeout := fs.Duration("lease-timeout", 0, "re-offer a fleet shard not completed in this long (0 = default, negative = never)")
	pprofFlag := fs.Bool("pprof", false, "also mount net/http/pprof under /debug/pprof/ on the API address")
	logFormat := logFormatFlag(fs)
	verbose := fs.Bool("v", false, "report job lifecycle and fleet events on stderr")
	if err := parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return usagef("unexpected arguments %q", fs.Args())
	}
	if *storeDir == "" {
		return usagef("a -store directory is required: it holds the job journal and cell cache that make the service durable")
	}
	if *shardDepth < 0 {
		return usagef("-shard-depth must not be negative (got %d)", *shardDepth)
	}
	logger, err := newCLILogger(e.stderr, *logFormat)
	if err != nil {
		return err
	}

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

	cfg := campaignd.Config{
		Store:       st,
		CodeVersion: cv,
		MaxActive:   *maxActive,
		Retain:      *retain,
		Workers:     *workers,
		ShardDepth:  *shardDepth,
	}
	if *verbose {
		// Lifecycle lines from campaignd, each job's sched layer, and the
		// fleet all go through the one slog handler.
		cfg.Logger = logger
	}

	var fleetLn net.Listener
	if *fleetAddr != "" {
		fleetLn, err = net.Listen("tcp", *fleetAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(e.stderr, "soft campaignd: fleet listening on %s\n", fleetLn.Addr())
		fleet := dist.NewFleet(fleetLn, dist.FleetConfig{
			LeaseTimeout: *leaseTimeout,
			Logger:       cfg.Logger,
		})
		defer fleet.Close()
		cfg.Fleet = fleet
	}

	srv, err := campaignd.New(cfg)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The chosen address goes out before the first request could need it —
	// e2e harnesses and humans alike parse this line to find the API.
	fmt.Fprintf(e.stderr, "soft campaignd: listening on %s\n", ln.Addr())

	// SIGINT/SIGTERM shut down gracefully: running jobs are requeued in the
	// journal (not failed), so the next start resumes them warm. A SIGKILL
	// skips all of this and the journal replay recovers anyway.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv.Start(ctx)

	handler := srv.Handler()
	if *pprofFlag {
		// The API handler already serves GET /metrics; -pprof adds the
		// profiler on the same address behind an explicit opt-in.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		addPprof(mux)
		handler = mux
	}
	httpSrv := &http.Server{Handler: handler}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case <-ctx.Done():
		fmt.Fprintln(e.stderr, "soft campaignd: shutting down (running jobs are requeued)")
		httpSrv.Close()
		<-serveErr
		srv.Close()
		return nil
	case err := <-serveErr:
		srv.Close()
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}

// ensureStoreVersion refuses a store stamped for different code — silently
// reusing it would either miss every cache entry or, for stores populated
// by unstamped binaries, collide on the "unversioned" pseudo-version.
// Version skew is a usage error (exit 2): the fix is a flag, not a rerun.
func ensureStoreVersion(st *store.Store, codeVersion string, migrate bool) error {
	if migrate {
		return st.SetCodeVersion(codeVersion)
	}
	if err := st.EnsureCodeVersion(codeVersion); err != nil {
		if store.IsVersionSkew(err) {
			return usageError{err}
		}
		return err
	}
	return nil
}
