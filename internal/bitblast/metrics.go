package bitblast

import (
	"github.com/soft-testing/soft/internal/obs"
)

// SAT-core metrics. Observation only — nothing here feeds back into
// solving (see internal/obs doc.go). The vars are exported so
// internal/dist can sample worker-local deltas and ship them to the
// coordinator on progress frames.
var (
	// MSolves counts from-scratch satisfiability decisions on stand-alone
	// blasters; MSolveLatency times those and session decisions alike.
	MSolves       = obs.NewCounter("soft_sat_solves_total")
	MSolveLatency = obs.NewHistogram("soft_sat_solve_latency_ns")
	// MAssumptionSolves / MAssumptionDepth cover incremental-session
	// decisions and the assumption-stack depth each one reused.
	MAssumptionSolves = obs.NewCounter("soft_sat_assumption_solves_total")
	MAssumptionDepth  = obs.NewHistogram("soft_sat_assumption_stack_depth")
	// MConstraintsReused counts conjunct encodings served from a session's
	// activation cache instead of being re-bitblasted.
	MConstraintsReused = obs.NewCounter("soft_sat_constraints_reused_total")
)
