package harness_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"github.com/soft-testing/soft/internal/agents/ovs"
	"github.com/soft-testing/soft/internal/agents/refswitch"
	"github.com/soft-testing/soft/internal/crosscheck"
	"github.com/soft-testing/soft/internal/group"
	"github.com/soft-testing/soft/internal/harness"
)

// The harness-level acceptance sweep for the incremental solver stack:
// whether assumption-stack sessions or a fresh solver per path explore an
// (agent, test) cell, on any worker count, the serialized results file —
// the artifact vendors exchange — must be byte-for-byte the file a plain
// sequential run writes, and the crosscheck verdicts derived from it must
// match exactly.

// solverMode is one cell of the sweep grid.
type solverMode struct {
	name        string
	incremental bool
	workers     int
}

func sweepModes() []solverMode {
	var modes []solverMode
	for _, workers := range []int{1, 4} {
		for _, inc := range []bool{false, true} {
			name := fmt.Sprintf("w%d", workers)
			if inc {
				name += "+inc"
			}
			modes = append(modes, solverMode{name: name, incremental: inc, workers: workers})
		}
	}
	return modes
}

// serializeResult renders a result to the results-file bytes with the
// wall-clock field zeroed (the only legitimately run-dependent field).
func serializeResult(t *testing.T, res *harness.Result) []byte {
	t.Helper()
	res.Elapsed = 0
	var buf bytes.Buffer
	if err := res.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestExploreByteIdentityAcrossSolverModes(t *testing.T) {
	tt, ok := harness.TestByName("Stats Request")
	if !ok {
		t.Fatal("Stats Request test missing")
	}
	want := serializeResult(t, harness.Explore(refswitch.New(), tt, harness.Options{
		WantModels: true, Workers: 1,
	}))
	for _, mode := range sweepModes() {
		got := serializeResult(t, harness.Explore(refswitch.New(), tt, harness.Options{
			WantModels:  true,
			Workers:     mode.workers,
			Incremental: mode.incremental,
		}))
		if !bytes.Equal(got, want) {
			t.Fatalf("mode %s: serialized result diverged from the sequential baseline", mode.name)
		}
	}
}

// renderReport flattens the deterministic crosscheck surface: verdict
// counts plus every inconsistency's canonical rendering.
func renderReport(rep *crosscheck.Report) string {
	var sb strings.Builder
	for _, inc := range rep.Inconsistencies {
		sb.WriteString(inc.String())
		sb.WriteString("\n")
	}
	return sb.String()
}

func TestCrossCheckByteIdentityAcrossSolverModes(t *testing.T) {
	tt, ok := harness.TestByName("Stats Request")
	if !ok {
		t.Fatal("Stats Request test missing")
	}
	run := func(incremental bool) string {
		opts := harness.Options{WantModels: true, Workers: 1, Incremental: incremental}
		ra := harness.Explore(refswitch.New(), tt, opts)
		rb := harness.Explore(ovs.New(), tt, opts)
		rep := crosscheck.Run(group.Paths(ra.Serialized()), group.Paths(rb.Serialized()), nil, 0)
		return renderReport(rep)
	}
	want := run(false)
	if got := run(true); got != want {
		t.Fatalf("crosscheck verdicts diverged under incremental exploration:\n--- want\n%s--- got\n%s", want, got)
	}
}
