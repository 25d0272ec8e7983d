package bitblast

import (
	"time"

	"github.com/soft-testing/soft/internal/obs"
	"github.com/soft-testing/soft/internal/sat"
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
	// MDecisions, MPropagations and MConflicts add up the SAT core's
	// search effort (its Stats delta) over every blaster and session
	// decision.
	MDecisions    = obs.NewCounter("soft_sat_decisions_total")
	MPropagations = obs.NewCounter("soft_sat_propagations_total")
	MConflicts    = obs.NewCounter("soft_sat_conflicts_total")
)

// solvePreferring runs one SolvePreferring on s, timing it and adding its
// search effort to the counters above.
func solvePreferring(s *sat.Solver, assumptions, pref []sat.Lit) bool {
	before := s.Stats
	start := time.Now()
	ok := s.SolvePreferring(assumptions, pref)
	MSolveLatency.ObserveSince(start)
	MDecisions.Add(s.Stats.Decisions - before.Decisions)
	MPropagations.Add(s.Stats.Propagations - before.Propagations)
	MConflicts.Add(s.Stats.Conflicts - before.Conflicts)
	return ok
}
