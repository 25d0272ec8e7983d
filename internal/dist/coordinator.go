package dist

import (
	"context"
	"io"
	"log/slog"
	"net"
	"time"

	"github.com/soft-testing/soft/internal/harness"
)

// DefaultShardDepth bounds the initial frontier split: forks whose decision
// vector is longer than this become shards for workers; shallower prefixes
// the coordinator explores itself while splitting. Depth 2 keeps the
// coordinator's share of the tree tiny while producing enough subtrees to
// feed several workers; adaptive balancing (JobConfig.Adaptive) subdivides
// further where the tree turns out to be deep.
const DefaultShardDepth = 2

// DefaultLeaseTimeout is how long a shard may stay leased without
// completing before the coordinator offers it to another worker. Re-leasing
// is safe at any timeout — first result wins and duplicates are identical —
// so the default only trades duplicated work against stall detection.
const DefaultLeaseTimeout = 2 * time.Minute

// Config parameterizes a single-job Serve run. AgentName and TestName are
// required and name the job by registry key — the form every worker
// process can resolve locally (an Agent value cannot cross a process
// boundary); zero limits take the harness defaults.
type Config struct {
	AgentName string
	TestName  string

	// MaxPaths/MaxDepth/WantModels/Incremental mirror harness.Options and
	// are forwarded to every worker; the limits and models flag must agree
	// across shards for the merged result to be canonical (the solver-mode
	// flag never changes results, only speed).
	MaxPaths    int
	MaxDepth    int
	WantModels  bool
	Incremental bool
	// NoCanonicalCut opts out of canonical MaxPaths truncation (see
	// JobConfig.NoCanonicalCut).
	NoCanonicalCut bool

	// ShardDepth bounds the initial frontier split (default
	// DefaultShardDepth).
	ShardDepth int
	// AdaptiveShards enables the progress-driven shard balancer: slow
	// subtrees are speculatively re-split while workers starve, trivial
	// ones ride batched leases (see JobConfig.Adaptive). `soft serve
	// -shard-depth=auto` sets this.
	AdaptiveShards bool
	// SplitAfter tunes the adaptive splitter's slowness threshold (default
	// DefaultSplitAfter).
	SplitAfter time.Duration
	// LeaseTimeout re-offers a shard that has not completed in this long
	// (default DefaultLeaseTimeout; negative disables re-leasing on
	// timeout — disconnects still re-lease).
	LeaseTimeout time.Duration
	// DrainTimeout bounds the graceful-shutdown wait after the merge: a
	// handler stuck mid-read on a hung worker is cut off after this long
	// (default 5s).
	DrainTimeout time.Duration

	// Progress, when set, receives the cumulative completed-path count
	// (coordinator-local paths plus live shard progress). Counts are a
	// monotone high-water mark.
	Progress func(done int)
	// Logger, when set, receives one structured line per lifecycle event
	// (worker connects, lease grants, re-leases, shard completions), each
	// carrying job/lease/worker/trace ids.
	Logger *slog.Logger
	// Log is the legacy plain-writer form: when Logger is nil and Log is
	// set, lines render through the text slog handler onto Log.
	Log io.Writer
}

// Serve runs a distributed exploration: it splits the frontier, serves
// shard leases to every worker that connects to ln, and returns the merged
// result once all shards complete. The result is byte-identical to a
// single-process exploration with the same configuration. Cancelling ctx
// aborts the run with ctx's error (a partial distributed run has no
// deterministic meaning, so nothing is returned).
//
// Serve is the single-job form of the fleet: it stands up a Fleet on ln,
// runs exactly one job, and shuts the fleet down. Campaigns that run many
// (agent, test) cells over one persistent fleet use NewFleet/Run directly
// (the sched package drives that path).
func Serve(ctx context.Context, ln net.Listener, cfg Config) (*harness.MergedResult, error) {
	f := NewFleet(ln, FleetConfig{
		LeaseTimeout: cfg.LeaseTimeout,
		DrainTimeout: cfg.DrainTimeout,
		Logger:       cfg.Logger,
		Log:          cfg.Log,
	})
	defer f.Close()
	return f.Run(ctx, JobConfig{
		AgentName:      cfg.AgentName,
		TestName:       cfg.TestName,
		MaxPaths:       cfg.MaxPaths,
		MaxDepth:       cfg.MaxDepth,
		WantModels:     cfg.WantModels,
		Incremental:    cfg.Incremental,
		NoCanonicalCut: cfg.NoCanonicalCut,
		ShardDepth:     cfg.ShardDepth,
		Adaptive:       cfg.AdaptiveShards,
		SplitAfter:     cfg.SplitAfter,
		Progress:       cfg.Progress,
	})
}
