package dist

import (
	"github.com/soft-testing/soft/internal/bitblast"
	"github.com/soft-testing/soft/internal/obs"
)

// Fleet metrics, mirroring the FleetStats lifecycle counters (which remain
// the per-fleet accounting Reports carry) into the process-global registry,
// plus the aggregation targets for worker-shipped metric deltas.
// Observation only — scheduling decisions never read these.
var (
	mWorkersJoined   = obs.NewCounter("soft_fleet_workers_joined_total")
	mWorkersRejected = obs.NewCounter("soft_fleet_workers_rejected_total")
	mLeases          = obs.NewCounter("soft_fleet_leases_total")
	mShardsLeased    = obs.NewCounter("soft_fleet_shards_leased_total")
	mRequeues        = obs.NewCounter("soft_fleet_requeues_total")
	mExpirations     = obs.NewCounter("soft_fleet_expirations_total")
	mStaleResults    = obs.NewCounter("soft_fleet_stale_results_total")
	// mWorkersConnected tracks live worker connections (welcomed minus
	// departed) for the `soft top` dashboard.
	mWorkersConnected = obs.NewGauge("soft_fleet_workers_connected")
	// mPathsDone counts paths banked into jobs (coordinator-local split
	// paths and accepted shard results): the numerator of the dashboard's
	// paths/sec rate.
	mPathsDone = obs.NewCounter("soft_fleet_paths_completed_total")
	// mLeaseRTT is the grant-to-first-accepted-result round trip per shard.
	mLeaseRTT = obs.NewHistogram("soft_fleet_lease_rtt_ns")

	// Remote aggregates: worker-local solver activity shipped as deltas on
	// progress frames (protocol v4) and summed fleet-wide here, so the
	// coordinator's /metrics shows cluster solver throughput live.
	mRemoteSolves     = obs.NewCounter("soft_fleet_remote_sat_solves_total")
	mRemoteSolveNanos = obs.NewCounter("soft_fleet_remote_solve_nanos_total")
	mRemoteAssumption = obs.NewCounter("soft_fleet_remote_assumption_solves_total")
	mRemoteReused     = obs.NewCounter("soft_fleet_remote_constraints_reused_total")
)

// LeaseRTTSnapshot snapshots the fleet lease round-trip histogram. It
// exists so benchmarks can diff the histogram around a run without
// re-registering the metric (each name must register exactly once).
func LeaseRTTSnapshot() obs.HistogramSnapshot { return mLeaseRTT.Snapshot() }

// workerMetrics is the fixed set of worker-local counters whose deltas ride
// progress frames. Sampling reads the worker process's global SAT metrics —
// a worker explores one lease at a time, so deltas attribute cleanly.
type workerMetrics struct {
	solves     uint64
	solveNanos uint64
	assumption uint64
	reused     uint64
}

func sampleWorkerMetrics() workerMetrics {
	return workerMetrics{
		solves:     uint64(bitblast.MSolves.Load() + bitblast.MAssumptionSolves.Load()),
		solveNanos: uint64(bitblast.MSolveLatency.Snapshot().Sum),
		assumption: uint64(bitblast.MAssumptionSolves.Load()),
		reused:     uint64(bitblast.MConstraintsReused.Load()),
	}
}

func (m workerMetrics) sub(o workerMetrics) workerMetrics {
	return workerMetrics{
		solves:     m.solves - o.solves,
		solveNanos: m.solveNanos - o.solveNanos,
		assumption: m.assumption - o.assumption,
		reused:     m.reused - o.reused,
	}
}

// addRemote folds one progress frame's deltas into the fleet-wide
// aggregates.
func addRemote(p progressMsg) {
	if p.dSolves == 0 && p.dSolveNanos == 0 && p.dAssumption == 0 && p.dReused == 0 {
		return
	}
	mRemoteSolves.Add(int64(p.dSolves))
	mRemoteSolveNanos.Add(int64(p.dSolveNanos))
	mRemoteAssumption.Add(int64(p.dAssumption))
	mRemoteReused.Add(int64(p.dReused))
}
