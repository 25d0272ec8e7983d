// Package sched implements the campaign scheduler: it runs a whole
// (agents × tests) evaluation matrix — the paper's full crosscheck
// campaign, every agent checked against every other over the OpenFlow test
// suite — on one persistent worker fleet, with an incremental result store
// so re-running a campaign only explores cells whose inputs changed.
//
// # Architecture
//
// A campaign has three layers, each reusing a determinism guarantee built
// below it:
//
//   - Cells. The matrix is a list of (agent, test) exploration cells. Each
//     cell's phase-1 result is byte-identical however it is produced —
//     sequentially, with in-process workers, or sharded across a fleet —
//     so the scheduler is free to route cells anywhere, cache them, and
//     compare campaign outputs bit for bit.
//
//   - Fleet. Distributed cells run as jobs on a dist.Fleet: the multi-job
//     extension of the wire protocol (see below) lets one set of worker
//     processes drain every cell without reconnecting, interleaving shards
//     of different cells over the same connections. Without a fleet the
//     scheduler explores cells in-process.
//
//   - Store. With a result store (internal/store), each cell is looked up
//     by the content hash of (agent, test, engine config, code version)
//     before exploring, and stored after. A warm re-run hits the store for
//     every unchanged cell; changing any key component — a new binary, a
//     different MaxPaths — misses by construction. Groupings are not
//     cached: each run regroups the results it holds, in memory, which is
//     faster than reading a stored grouping back.
//
// # Multi-job protocol frames
//
// Protocol version 2 (internal/dist) made every work-carrying frame
// job-scoped so a fleet outlives any single exploration:
//
//	coord → job      {job id, agent, test, engine options}
//	coord → lease    {job id, lease id, decision prefix}
//	work  → progress {job id, lease id, solver-metric deltas}
//	work  → result   {job id, lease id, shard payload}
//
// A job frame is sent once per connection per job, lazily before that
// job's first lease on the connection. A hello whose protocol version
// differs is refused with an explicit reject frame naming the wanted
// version.
//
// # One shard per lease
//
// The fleet splits each cell's frontier once, at a fixed `-shard-depth`,
// and every lease carries exactly one shard: a worker asks for its next
// shard only once it has returned the last one, so no shard waits in one
// worker's lease while another worker idles.
//
// # Cache keying
//
// Exploration results are keyed by SHA-256 over the canonical rendering of
// (agent name, test name, code version, MaxPaths, MaxDepth, models,
// canonical cut) — every input that can change exploration output. The
// rendering still carries a constant "clausesharing=false" for an option
// that no longer exists, so stores written before its removal stay warm.
// The code version defaults to the binary's VCS build stamp
// (store.DefaultCodeVersion) and should be pinned explicitly in
// deployments. Because exploration is deterministic, a cache hit is
// bit-for-bit indistinguishable from a fresh run — which is what makes
// caching sound in a system whose acceptance property is byte-identity.
package sched
