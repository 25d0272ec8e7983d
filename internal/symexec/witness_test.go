package symexec_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"github.com/soft-testing/soft/internal/agents"
	_ "github.com/soft-testing/soft/internal/agents/ovs"       // register "ovs"
	_ "github.com/soft-testing/soft/internal/agents/refswitch" // register "ref"
	"github.com/soft-testing/soft/internal/harness"
)

// TestOneSolvePerFrontierBranch pins witness reuse on real agents: every
// frontier branch of a full run costs exactly one assumption solve (the
// path's witness proves one arm), and each completed path's canonical
// model one more. Without the witness a branch whose true arm is feasible
// costs two.
func TestOneSolvePerFrontierBranch(t *testing.T) {
	test, ok := harness.TestByName("Packet Out")
	if !ok {
		t.Fatal("missing test Packet Out")
	}
	for _, agent := range []string{"ref", "ovs"} {
		for _, models := range []bool{true, false} {
			for _, workers := range []int{1, 2} {
				name := fmt.Sprintf("%s models=%v workers=%d", agent, models, workers)
				res := harness.Explore(agents.MustByName(agent), test, harness.Options{WantModels: models, Workers: workers})
				want := res.BranchQueries
				if models {
					want += int64(len(res.Paths))
				}
				if res.Infeasible != 0 || res.DepthTruncated != 0 || res.Truncated {
					t.Fatalf("%s: want a complete run with no abandoned paths, got %d infeasible, %d cut, truncated %v",
						name, res.Infeasible, res.DepthTruncated, res.Truncated)
				}
				if got := res.SolverStats.AssumptionSolves; got != want {
					t.Errorf("%s: %d assumption solves for %d branch queries and %d paths, want %d",
						name, got, res.BranchQueries, len(res.Paths), want)
				}
			}
		}
	}
}

// TestPrefixRunMatchesSubtree checks that a shard, which starts from its
// prefix without a witness, explores exactly the full run's subtree below
// that prefix: the same paths with the same conditions, traces and
// canonical models.
func TestPrefixRunMatchesSubtree(t *testing.T) {
	test, ok := harness.TestByName("Packet Out")
	if !ok {
		t.Fatal("missing test Packet Out")
	}
	agent := agents.MustByName("ovs")
	ctx := context.Background()
	full := harness.ExploreShard(ctx, agent, test, harness.Options{WantModels: true, Workers: 1})
	var prefixes [][]bool
	harness.Explore(agent, test, harness.Options{
		WantModels: true,
		ShardDepth: 3,
		ShardSink:  func(p []bool) { prefixes = append(prefixes, p) },
	})
	if len(prefixes) == 0 {
		t.Fatal("split produced no shards")
	}
	for _, prefix := range prefixes {
		var want []int
		for i, d := range full.Decisions {
			if hasPrefix(d, prefix) {
				want = append(want, i)
			}
		}
		got := harness.ExploreShard(ctx, agent, test, harness.Options{WantModels: true, Prefix: prefix, Workers: 1})
		if len(got.Paths) != len(want) || len(want) == 0 {
			t.Fatalf("prefix %v: %d paths, full run has %d below it", prefix, len(got.Paths), len(want))
		}
		for i, wi := range want {
			g, w := &got.Paths[i], &full.Paths[wi]
			gd, wd := got.Decisions[i], full.Decisions[wi]
			if !reflect.DeepEqual(gd, wd) || g.Cond.String() != w.Cond.String() ||
				g.Canonical != w.Canonical || !reflect.DeepEqual(g.Model, w.Model) {
				t.Fatalf("prefix %v, path %d: shard and full run differ:\n%v %v %v\n%v %v %v",
					prefix, i, gd, g.Cond, g.Model, wd, w.Cond, w.Model)
			}
		}
	}
}

func hasPrefix(d, prefix []bool) bool {
	return len(d) >= len(prefix) && reflect.DeepEqual(d[:len(prefix)], prefix)
}
