// Package symexec implements the symbolic execution engine at the core of
// SOFT's first phase. It substitutes for Cloud9 in the paper's prototype:
// given a deterministic handler (the OpenFlow agent model driven by the test
// harness), it explores every feasible execution path, maintaining a path
// condition per path and recording the outputs the agent produced along it.
//
// # Deterministic re-execution
//
// The engine uses deterministic re-execution (execution-generated testing):
// a path is identified by the sequence of decisions taken at branches whose
// condition depends on symbolic input. To explore an alternative, the engine
// re-runs the handler from the start, replaying the recorded decision prefix
// and then diverging. Because agents are deterministic functions of the
// branch decisions, replay reconstructs exactly the same execution tree a
// state-forking engine (like Cloud9) would maintain, at the cost of
// re-execution — which is cheap for agent models — and with none of the
// state-snapshotting machinery.
//
// Branch feasibility is decided on one persistent assumption-stack solver
// session per worker, kept across all the worker's paths (see "Incremental
// solving along the path tree" below).
//
// # Parallel exploration
//
// Because paths are independent re-executions, exploration parallelizes at
// the path granularity. Engine.Workers (default GOMAXPROCS) workers run the
// following scheme, the reproduction's stand-in for the paper's Cloud9
// cluster (§3.2):
//
//   - Each worker owns a local frontier of unexplored branch-decision
//     prefixes, ordered by its own instance of the configured search
//     strategy (WorkerStrategy.ForWorker derives the per-worker instances;
//     randomized strategies get deterministic per-worker seeds).
//   - The hot path is share-nothing: path execution uses a worker-private
//     constraint encoding and CDCL core, forks push onto the worker-local
//     frontier, and the branch-query counter is worker-local. No locks, no atomics while a path runs.
//   - A shared steal pool balances load. A worker that drains its local
//     frontier blocks in the pool; busy workers observe the (lock-free)
//     idle count at fork time and donate forks — or half their backlog —
//     when someone is starving. Exploration terminates when every worker is
//     idle and the pool is empty.
//
// # Incremental solving along the path tree
//
// Each worker owns one persistent bitblast.Session. A session keeps a
// single SAT core and encoding memo alive across every path the worker
// attempts: each path-condition conjunct is Tseitin-encoded once, guarded
// by an activation literal a_c via the clause (¬a_c ∨ lit(c)), and a path's
// feasibility query becomes one solve under the assumption stack
// (a_1..a_k) of its conjuncts. Sibling paths — which share their entire
// constraint prefix — therefore share CNF, learned clauses, and VSIDS
// activity instead of re-blasting and re-learning it per path; that reuse
// is where the paths/sec win on conflict-rich workloads comes from
// (internal/sym's hash-consed interning makes the per-conjunct cache a
// pointer lookup on the hot path, and rebuilding an interned condition
// during replay allocates nothing).
//
// A frontier branch costs one solve, not two (witness reuse, KLEE's
// counterexample cache in its simplest form). Every path carries a witness:
// an assignment satisfying its path condition, empty at the tree's root
// and otherwise the model of the solve that proved the path's last frontier
// arm feasible; a forked work item carries its arm's model. At a frontier
// branch the arm the witness satisfies (evaluated once per DAG node, with
// sym.Evaluator) is feasible with no solve; only the other arm is solved,
// and a sat answer's model is that arm's witness. Assume skips its solve
// when the witness satisfies the assumption. A prefix-seeded run (a fleet
// shard) starts without a witness, so its first frontier branch solves both
// arms as before. Witnesses only choose which arm is solved: feasibility is
// a property of the formula, so every fork, path and canonical model is the
// same whichever model the witness happens to be (Context.BranchSite states
// the invariant).
//
// Sessions preserve answers exactly: assumptions are decided on the same
// formula a fresh solver would decide, and learned clauses are resolvents of
// database clauses only (never of assumptions). Witness models stay
// identical too because the engine extracts the canonical model
// (bitblast.CanonicalModel): the numerically smallest satisfying
// assignment, a pure function of the path condition rather than of the
// CDCL search trajectory. A completed path's model costs one solve under
// its assumption stack: sat.SolvePreferring decides the path's input bits
// at 0 in canonical order (variables by name, each MSB first) before any
// other variable, and that same solve confirms the path is feasible, so
// no separate Solve precedes it. bitblast's
// TestCanonicalModelMatchesProbesOnPaths checks every explored path of
// two agents against a fresh solver per path (feasibility and canonical
// model), and the determinism tests pin byte-identical output across
// worker counts.
//
// # Determinism
//
// The execution tree of a deterministic handler is a fixed object: every
// fork point, every completed path, and every infeasible or depth-truncated
// prefix is determined by the handler alone, not by the order the tree is
// walked. An exhaustive exploration therefore discovers the same path set
// under any strategy, worker count, and scheduling. The engine makes the
// *reported* result identical too by canonicalizing afterwards: completed
// paths are sorted by their branch-decision vector (lexicographically,
// false before true) and path IDs are assigned in that order. Sequential
// and parallel runs of the same handler produce byte-identical results —
// the property the determinism regression tests in parallel_test.go and
// harness's parallel_test.go pin, and the foundation of the paper's
// no-false-positive guarantee under concurrency.
//
// Sessions change no answer, so the guarantee holds whatever path mix each
// worker's session has seen: an exhaustive run serializes to the same
// bytes for every worker count (pinned by TestIncrementalDeterminism here
// and the harness and CLI determinism tests downstream).
//
// MaxPaths truncation comes in two flavors. The default keeps the first
// MaxPaths paths that happen to complete — cheap, but *which* paths those
// are depends on strategy order and, with several workers, on scheduling,
// so truncated runs are not canonical. Engine.CanonicalCut closes that
// caveat: the run keeps the MaxPaths canonically *smallest* completed
// paths instead. The kept set converges because decision-prefix order is
// subtree-monotone — every path below a pending prefix sorts after it — so
// once MaxPaths paths at or below some bound have completed, any pending
// prefix sorting after the current MaxPaths-th smallest path can be pruned
// outright (canoncut.go). The result is a pure function of the execution
// tree: byte-identical for every worker count, strategy, and distributed
// shard layout, which is why distributed runs default to it. In a
// truncated canonical run, coverage is rebuilt from exactly the kept paths
// (which other attempts executed before pruning kicked in is
// schedule-dependent), and the Infeasible/DepthTruncated/BranchQueries
// counters remain approximate; cancelled runs are still non-canonical.
//
// # Distributed exploration
//
// Because a path is identified by its decision prefix and re-execution is
// deterministic, the execution tree shards across processes at the subtree
// granularity with no shared engine state — the reproduction's answer to
// the paper's Cloud9 cluster deployment. Three engine hooks make it work:
//
//   - Engine.ShardSink (with ShardDepth) is the coordinator-side split: the
//     run explores every path reachable through prefixes of length <=
//     ShardDepth itself and diverts each deeper fork to the sink. The
//     diverted prefixes are the roots of disjoint, collectively exhaustive
//     unexplored subtrees (EGT's frontier invariant: pending items plus
//     completed paths always partition the remaining tree).
//
//   - Engine.Prefix is the worker side: exploration seeded from a diverted
//     prefix replays it and explores exactly that subtree, with any local
//     worker count. Completed paths carry their full decision vector.
//
//   - Canonical merge: concatenating shard results and sorting by decision
//     vector (LessDecisions) reproduces the exact canonical path set and ID
//     assignment of a single-process run — harness.MergeShards implements
//     it, internal/dist ships shards between processes, and re-exploring a
//     subtree twice (a re-leased crash recovery) yields byte-identical
//     shards, so duplicates are simply dropped.
package symexec
