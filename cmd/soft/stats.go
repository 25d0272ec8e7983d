package main

import (
	"fmt"
	"strings"
	"time"

	"github.com/soft-testing/soft"
)

// describeStats renders one stage's solver statistics for -v output: how
// hard the solver worked and how much the incremental sessions reused.
// branchQueries < 0 omits the exploration-only frontier counter (crosscheck
// has none); exploration asks no façade queries, so their count prints only
// when nonzero or for a crosscheck.
func describeStats(st soft.SolverStats, branchQueries int64) string {
	var parts []string
	if st.Queries > 0 || branchQueries < 0 {
		parts = append(parts, fmt.Sprintf("%d queries", st.Queries))
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
