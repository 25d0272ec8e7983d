package main

import (
	"fmt"
	"time"

	"github.com/soft-testing/soft"
)

// describeStats renders one stage's solver statistics for -v output: how
// hard the solver worked, how much the query cache saved, and how much the
// incremental sessions reused. branchQueries < 0
// omits the exploration-only frontier counter (crosscheck has none).
func describeStats(st soft.SolverStats, branchQueries int64) string {
	s := fmt.Sprintf("solver: %d queries, %d cache hits", st.Queries, st.CacheHits)
	if branchQueries >= 0 {
		s += fmt.Sprintf(", %d branch feasibility queries", branchQueries)
	}
	if st.SolveTime > 0 {
		s += fmt.Sprintf(", %s solving", st.SolveTime.Round(time.Millisecond))
	}
	if st.AssumptionSolves > 0 || st.FullSolves > 0 {
		s += fmt.Sprintf("; sessions: %d assumption solves, %d full solves, %d constraints reused",
			st.AssumptionSolves, st.FullSolves, st.ConstraintsReused)
	}
	if st.InternHits > 0 {
		s += fmt.Sprintf("; intern: %d hits", st.InternHits)
	}
	return s
}
