package harness_test

import (
	"context"
	"strings"
	"testing"

	"github.com/soft-testing/soft/internal/agents/ovs"
	"github.com/soft-testing/soft/internal/agents/refswitch"
	"github.com/soft-testing/soft/internal/crosscheck"
	"github.com/soft-testing/soft/internal/group"
	"github.com/soft-testing/soft/internal/harness"
)

// renderReport flattens the deterministic crosscheck surface: every
// inconsistency's canonical rendering.
func renderReport(rep *crosscheck.Report) string {
	var sb strings.Builder
	for _, inc := range rep.Inconsistencies {
		sb.WriteString(inc.String())
		sb.WriteString("\n")
	}
	return sb.String()
}

// TestCrossCheckByteIdentityAcrossWorkerCounts: whichever exploration
// worker count produced the two agents' results, the crosscheck verdicts
// derived from them must match exactly. (TestParallelExploreDeterminism
// pins the results files themselves.)
func TestCrossCheckByteIdentityAcrossWorkerCounts(t *testing.T) {
	tt, ok := harness.TestByName("Stats Request")
	if !ok {
		t.Fatal("Stats Request test missing")
	}
	run := func(workers int) string {
		opts := harness.Options{WantModels: true, Workers: workers}
		ra := harness.Explore(refswitch.New(), tt, opts)
		rb := harness.Explore(ovs.New(), tt, opts)
		rep := crosscheck.RunOpts(context.Background(), group.Paths(ra), group.Paths(rb), crosscheck.Opts{Workers: 1})
		return renderReport(rep)
	}
	want := run(1)
	if got := run(4); got != want {
		t.Fatalf("crosscheck verdicts diverged across exploration worker counts:\n--- want\n%s--- got\n%s", want, got)
	}
}
