package flowtable_test

import (
	"testing"

	"github.com/soft-testing/soft/internal/agents/refswitch"
	"github.com/soft-testing/soft/internal/flowtable"
	"github.com/soft-testing/soft/internal/harness"
)

// TestFlowModExploreBuildsOneMatchCond guards the memo's key: every
// replayed path of FlowMod on the reference switch matches the one probe
// against the one installed entry, so the whole exploration must leave a
// single MatchCond entry. A key over per-path state (say, a fresh copy of
// a field) would leave one per path.
func TestFlowModExploreBuildsOneMatchCond(t *testing.T) {
	tt, ok := harness.TestByName("FlowMod")
	if !ok {
		t.Fatal("no FlowMod test")
	}
	flowtable.ResetCondMemo()
	r := harness.Explore(refswitch.New(), tt, harness.Options{Workers: 2})
	if len(r.Paths) < 2 {
		t.Fatalf("FlowMod explored %d paths", len(r.Paths))
	}
	if n := flowtable.MatchCondMemoLen(); n != 1 {
		t.Fatalf("FlowMod on ref left %d MatchCond memo entries, want 1", n)
	}
}
