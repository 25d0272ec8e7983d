package main

// metricDef names one reported metric. The lists below are the ones
// BENCHMARK.json declares; bench_test.go keeps the two in step.
type metricDef struct{ name, unit, better string }

// endToEnd metrics come from the untraced repetitions of a run.
var endToEnd = []metricDef{
	// Work units per second of the timed section: paths (explore-flowmod,
	// fleet-flowmod), crosscheck queries (crosscheck-table1) or campaign
	// cells (campaign-store-*). Median over repetitions.
	{"items_per_s", "1/s", "higher"},
	// Max RSS of a repetition's process plus, on fleet-flowmod, that of each
	// of its fleet workers: what the repetition needs of the host. Median
	// over repetitions.
	{"peak_rss_mb", "MiB", "lower"},
	// Run-level set-up (a warm workload's store fill) plus the repetition
	// set-up, spawn to ready. Median over repetitions.
	{"setup_s", "s", "lower"},
}

// perLayer metrics come from the traced repetition, named by module. A
// layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"harness.explore_s", "s", "lower"},
	{"harness.paths", "count", "higher"},
	{"harness.infeasible", "count", "lower"},
	{"harness.useful_path_ratio", "ratio", "higher"},
	{"harness.serialize_s", "s", "lower"},
	{"harness.read_s", "s", "lower"},
	{"harness.results_mb", "MiB", "lower"},
	{"symexec.branch_queries", "count", "lower"},
	{"symexec.steals", "count", "lower"},
	{"symexec.donations", "count", "lower"},
	{"sym.intern_hits", "count", "higher"},
	{"sym.intern_misses", "count", "lower"},
	{"sym.intern_hit_ratio", "ratio", "higher"},
	{"bitblast.assumption_solves", "count", "lower"},
	{"bitblast.constraints_reused", "count", "higher"},
	{"bitblast.models_s", "s", "lower"},
	{"bitblast.probe_encode_s", "s", "lower"},
	{"bitblast.probe_solve_s", "s", "lower"},
	{"bitblast.probe_model_s", "s", "lower"},
	{"sat.solves", "count", "lower"},
	{"sat.solve_s", "s", "lower"},
	{"sat.solve_p50_us_le", "us", "lower"},
	{"sat.solve_p99_us_le", "us", "lower"},
	{"solver.queries", "count", "lower"},
	{"solver.cache_hits", "count", "higher"},
	{"solver.fastpath_const", "count", "higher"},
	{"solver.sat_queries", "count", "lower"},
	{"solver.unsat_queries", "count", "lower"},
	{"solver.solve_s", "s", "lower"},
	{"solver.clauses", "count", "lower"},
	{"solver.aux_vars", "count", "lower"},
	{"group.paths_s", "s", "lower"},
	{"group.paths_in", "count", "higher"},
	{"group.groups", "count", "lower"},
	{"crosscheck.run_s", "s", "lower"},
	{"crosscheck.pairs", "count", "higher"},
	{"crosscheck.queries", "count", "lower"},
	{"crosscheck.inconsistencies", "count", "higher"},
	{"crosscheck.witness_ratio", "ratio", "higher"},
	{"store.put_s", "s", "lower"},
	{"store.get_s", "s", "lower"},
	{"store.hash_s", "s", "lower"},
	{"store.bytes_written", "bytes", "lower"},
	{"store.bytes_read", "bytes", "lower"},
	{"store.result_hits", "count", "higher"},
	{"store.result_misses", "count", "lower"},
	{"sched.matrix_s", "s", "lower"},
	{"sched.other_s", "s", "lower"},
	{"dist.leases", "count", "lower"},
	{"dist.batched_leases", "count", "higher"},
	{"dist.shards", "count", "lower"},
	{"dist.requeues", "count", "lower"},
	{"dist.expirations", "count", "lower"},
	{"dist.stale_results", "count", "lower"},
	{"dist.lease_s", "s", "lower"},
	{"dist.lease_rtt_p50_ms_le", "ms", "lower"},
	{"dist.lease_rtt_p99_ms_le", "ms", "lower"},
	{"dist.remote_solves", "count", "lower"},
	{"dist.remote_solve_s", "s", "lower"},
	{"dist.inproc_paths_per_s", "1/s", "higher"},
	{"dist.overhead_ratio", "ratio", "lower"},
	{"bench.wall_s", "s", "lower"},
	{"bench.trace_overhead_ratio", "ratio", "lower"},
	{"bench.layer_coverage", "ratio", "higher"},
}
