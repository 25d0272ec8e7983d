// Package scenario is the stateful multi-message scenario subsystem: the
// matrix dimension where flow-table *state machines* get tested, not just
// single-message parsing (§5 finds its deepest interoperability bugs in
// exactly these install → modify/delete → probe interactions).
//
// A Scenario is a named deterministic sequence of Steps. Each step builds
// one harness.Input — a structured symbolic OpenFlow message or a data
// plane probe — using the same §3.2.1 discipline as the Table 1 suite
// (concrete types, lengths and action boundaries; symbolic values where a
// step declares them). Fresh symbolic variables are namespaced by step
// index ("s0.", "s1.", ...) so a scenario's exploration is a pure
// function of its definition and the canonical-order guarantees hold:
// scenario runs are byte-identical across worker counts, fleet layouts,
// and warm/cold stores.
//
// Scenarios compile down to harness.Test via (*Scenario).Test(), and the
// package registers a harness test source at init, so every layer that
// resolves tests by name — soft.Explore, the campaign scheduler,
// distributed fleet workers — resolves scenario names with no further
// plumbing. Two scenario families exist:
//
//   - The curated seed library (seeds.go): hand-written sequences aimed
//     at the §5.1.2 divergence classes (silent drops vs auto-masking,
//     buffered-packet handling, emergency flows, strict vs non-strict
//     modify/delete semantics), including one family shaped after the
//     realistic flow tables the contiv netplugin programs.
//   - The deterministic generator (generate.go): a bounded enumeration of
//     step-sequence templates named "gen:<index>". The index alone is the
//     identity — no clock, no randomness — so any process resolves the
//     same name to the same scenario without registration coordination.
//
// Caching: a scenario's definition can change without the binary
// changing, so (*Scenario).DefHash() — a hash of every step's built
// symbolic bytes — is carried on the compiled harness.Test and folded
// into internal/store cache keys. Editing a scenario misses the store by
// construction; everything else stays warm.
package scenario
