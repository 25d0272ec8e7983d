package main

import (
	"fmt"
	"strings"
	"time"

	"github.com/soft-testing/soft"
)

// describeStats renders one stage's solver statistics for -v output: how
// hard the solver worked, how much the query cache saved, and how much the
// incremental sessions reused. branchQueries < 0 omits the exploration-only
// frontier counter (crosscheck has none); exploration asks no cached
// queries, so their counters print only when nonzero or for a crosscheck.
func describeStats(st soft.SolverStats, branchQueries int64) string {
	var parts []string
	if st.Queries > 0 || branchQueries < 0 {
		parts = append(parts, fmt.Sprintf("%d queries, %d cache hits", st.Queries, st.CacheHits))
	}
	if branchQueries >= 0 {
		parts = append(parts, fmt.Sprintf("%d branch feasibility queries", branchQueries))
	}
	if st.SolveTime > 0 {
		parts = append(parts, fmt.Sprintf("%s solving", st.SolveTime.Round(time.Millisecond)))
	}
	s := "solver: " + strings.Join(parts, ", ")
	if st.AssumptionSolves > 0 {
		s += fmt.Sprintf("; sessions: %d assumption solves, %d constraints reused",
			st.AssumptionSolves, st.ConstraintsReused)
	}
	if st.InternHits > 0 {
		s += fmt.Sprintf("; intern: %d hits", st.InternHits)
	}
	return s
}
