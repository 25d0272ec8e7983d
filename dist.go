package soft

import (
	"context"
	"net"

	"github.com/soft-testing/soft/internal/dist"
	"github.com/soft-testing/soft/internal/harness"
)

// DistResult is the outcome of a distributed exploration (Serve): the
// serialized phase-1 result — byte-identical to a single-process Explore
// with the same configuration — plus the run counters aggregated across
// every worker. Write it with its SerializedResult.Write method; downstream
// phases (Group, CrossCheck) consume the serialized form anyway.
type DistResult = harness.MergedResult

// Serve runs SOFT's phase 1 distributed across worker processes — the
// paper's Cloud9-on-a-cluster deployment (§3.2) rebuilt on the
// reproduction's determinism guarantees. The coordinator listens on addr,
// splits the exploration frontier into decision-prefix subtrees, leases
// them to every Work process that connects, and merges the shard outputs in
// canonical decision-prefix order, so the result is byte-identical to
// `Explore` run in one process (workers that crash mid-shard only cost a
// re-lease; shards explored twice return identical bytes and the duplicate
// is dropped).
//
// The job is named by registry keys — agent (see RegisterAgent/Agents) and
// test (see Tests) — because workers resolve it in their own process; both
// coordinator and workers must run a binary with the agent registered.
// MaxPaths truncation defaults to the canonical cut (WithCanonicalCut), so
// even truncated distributed runs are reproducible. Cancelling ctx aborts
// the run with its error: a partial distributed run has no deterministic
// meaning, so no result is returned.
//
// Serve blocks until the run completes. Options: WithMaxPaths,
// WithMaxDepth, WithModels, WithIncrementalSolver (forwarded to workers),
// WithShardDepth, WithAdaptiveShards (progress-driven shard balancing),
// WithLeaseTimeout, WithCanonicalCut, WithProgress, WithLog.
//
// Serve runs exactly one (agent, test) job and then shuts its fleet down;
// campaigns that drain a whole matrix over one persistent fleet use
// RunMatrix with WithFleetListener.
func Serve(ctx context.Context, addr, agent, test string, opts ...Option) (*DistResult, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	return ServeListener(ctx, ln, agent, test, opts...)
}

// ServeListener is Serve on an existing listener — for callers that bind
// ":0" and need the chosen address, or that manage the socket themselves.
// The listener is closed when the run ends.
func ServeListener(ctx context.Context, ln net.Listener, agent, test string, opts ...Option) (*DistResult, error) {
	cfg := newConfig(opts)
	dc := dist.Config{
		AgentName:      agent,
		TestName:       test,
		MaxPaths:       cfg.maxPaths,
		MaxDepth:       cfg.maxDepth,
		WantModels:     cfg.models,
		Incremental:    cfg.incremental,
		NoCanonicalCut: !cfg.canonicalCutOr(true),
		ShardDepth:     cfg.shardDepth,
		AdaptiveShards: cfg.adaptiveShards,
		LeaseTimeout:   cfg.leaseTimeout,
		Logger:         cfg.logger,
		Log:            cfg.log,
	}
	var pq *progressQueue
	if cfg.progress != nil {
		pq = newProgressQueue(cfg.progress)
		dc.Progress = func(done int) {
			pq.send(Event{Phase: PhaseExplore, Agent: agent, Test: test, Done: done})
		}
	}
	res, err := dist.Serve(ctx, ln, dc)
	if err != nil {
		if pq != nil {
			pq.close()
		}
		return nil, err
	}
	if pq != nil {
		// Final event: solver statistics aggregated across the coordinator's
		// split run and every worker shard — the same shape Explore's final
		// event carries, so -v style consumers work unchanged.
		pq.close(Event{
			Phase: PhaseExplore, Agent: agent, Test: test,
			Done:  len(res.Paths),
			Stats: &res.SolverStats,
		})
	}
	return res, nil
}

// Work runs a distributed exploration worker: it connects to a Serve
// coordinator at addr, explores the shard leases it is handed (each with
// the in-process parallel engine — WithWorkers sets the per-shard
// parallelism), streams progress back, and returns nil when the coordinator
// completes the run. Cancelling ctx abandons the current shard without
// shipping a partial result; the coordinator re-leases it elsewhere.
//
// The agent under test must be registered in this process (RegisterAgent;
// the built-in agents register on import). Options: WithWorkers,
// WithWorkerName, WithLog.
func Work(ctx context.Context, addr string, opts ...Option) error {
	cfg := newConfig(opts)
	return dist.Work(ctx, addr, dist.WorkerConfig{
		Name:    cfg.workerName,
		Workers: cfg.workers,
		Logger:  cfg.logger,
		Log:     cfg.log,
	})
}
