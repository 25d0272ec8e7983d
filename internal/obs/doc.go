// Package obs is SOFT's dependency-free observability layer: a sharded
// registry of counters, gauges, and power-of-two histograms, plus
// lightweight span tracing that renders to the Chrome trace-event JSON
// format (loadable in Perfetto or chrome://tracing).
//
// # Design
//
// Metrics are process-global and always on. A metric is created once —
// typically in a package-level var block — and the returned handle is a
// bare atomic: Counter.Inc is one atomic add, Histogram.Observe is two.
// The registry itself is sharded by name hash and locked only during
// creation and exposition, never on the update path, so instrumenting a
// hot loop costs the atomics and nothing else. WritePrometheus renders
// every registered metric in the Prometheus text exposition format;
// `soft matrix -metrics-addr` mounts it at GET /metrics.
//
// Histograms bucket by the bit length of the observed value, i.e. bucket
// i holds values in [2^(i-1), 2^i). That trades resolution for a fixed
// 64-slot layout with no configuration: one histogram type covers
// nanosecond latencies, stack depths, and byte counts alike, and
// snapshots subtract cleanly so a caller can diff before/after a run to
// get per-run quantiles (the bench JSON's p50/p99 solve latency).
//
// Tracing is opt-in per run: StartTracing installs a process-wide
// tracer, StartSpan/End record phase spans into a bounded in-memory
// buffer (overflow increments soft_trace_events_dropped_total rather
// than growing without bound), and WriteTo emits the JSON file. With no
// tracer installed StartSpan returns a zero Span whose End is a no-op —
// a nil check and nothing else on the disabled path.
//
// # The no-answer-path-effects invariant
//
// Nothing in this package — and nothing instrumentation built on it does —
// may influence what the pipeline computes. Counters and spans observe
// control flow; they must never steer it. Concretely:
//
//   - Metric and span state is write-only from the instrumented code's
//     point of view: the engine, solver, fleet, and scheduler never read a
//     metric back to make a decision.
//   - Instrumentation records wall-clock durations and queue depths,
//     which differ run to run; none of that feeds result serialization.
//     Exploration results, grouped results, and campaign reports remain
//     byte-identical with tracing on or off, metrics scraped or not —
//     the determinism sweeps assert exactly this.
//   - Dropping is always acceptable: a full trace buffer or a saturated
//     progress queue drops events and counts the drop. Blocking the hot
//     path to preserve an observation would invert the priority.
//
// Any new instrumentation must preserve all three properties.
//
// # Cross-process traces
//
// One traced campaign yields one timeline even when the work spans a
// coordinator and fleet workers. The unit of exchange is the Segment: one
// process's buffered spans plus the wall-clock base (BaseUnixMicro) that
// lets a receiver rebase them, the originating process's name, and an
// optional Parent span id. Drain empties a tracer into segments (local
// spans first); MergeSegment rebases a foreign segment onto the receiving
// tracer's clock, assigns it a fresh pid (one track per remote process in
// the rendered trace), and re-parents its parentless spans under
// Segment.Parent — the coordinator lease span that granted the work —
// while spans with explicit in-segment parents keep them. Bundle is just
// a set of segments; WriteChromeJSON renders it as one timeline, each
// segment on its own track.
//
// Trace identity crosses process boundaries as a 64-bit id: hex
// (FormatTraceID) in log fields and a raw uint64 on the dist wire.
// Propagation is always context + ship-back: the caller sends the id (and
// parent span) down with the work, the callee traces locally and ships
// segments up, the caller merges. No process ever blocks on another's
// trace state.
//
// # Structured-logging conventions
//
// Long-running commands log through log/slog (NewLogger: text or JSON
// handler). Field names are shared across processes so one grep
// reassembles a distributed run:
//
//   - component: the emitting subsystem ("dist", "worker", "sched")
//   - job, lease, shard: the dist work-unit ids, outermost first
//   - worker: the worker's self-reported name
//   - agent, test (agent_a, agent_b for a pair check): campaign cells
//   - trace: the hex trace id (TraceAttr; omitted when untraced)
//
// Lines are emitted at Info for lifecycle transitions (lease granted,
// shard done, job done) and Debug for per-frame chatter; logging obeys
// the same invariant as everything else here — it observes, it never
// steers.
package obs
