package soft

import (
	"context"

	"github.com/soft-testing/soft/internal/dist"
)

// Work runs a distributed exploration worker: it connects to a fleet
// coordinator at addr — a RunMatrix campaign with WithFleetListener
// (`soft matrix -addr`) or the campaign service's fleet (`soft campaignd
// -fleet-addr`) — explores the shard leases it is handed (each with the
// in-process parallel engine — WithWorkers sets the per-shard
// parallelism), streams solver metrics back, and returns nil when the
// coordinator shuts its fleet down. Cancelling ctx abandons the current
// shard without shipping a partial result; the coordinator re-leases it
// elsewhere.
//
// The agent under test must be registered in this process (RegisterAgent;
// the built-in agents register on import). Options: WithWorkers,
// WithWorkerName, WithLogger.
func Work(ctx context.Context, addr string, opts ...Option) error {
	cfg := newConfig(opts)
	return dist.Work(ctx, addr, dist.WorkerConfig{
		Name:    cfg.workerName,
		Workers: cfg.workers,
		Logger:  cfg.logger,
	})
}
