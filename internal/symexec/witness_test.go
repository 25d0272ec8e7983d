package symexec_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/soft-testing/soft/internal/agents"
	_ "github.com/soft-testing/soft/internal/agents/ovs"       // register "ovs"
	_ "github.com/soft-testing/soft/internal/agents/refswitch" // register "ref"
	"github.com/soft-testing/soft/internal/bitblast"
	"github.com/soft-testing/soft/internal/harness"
	"github.com/soft-testing/soft/internal/symexec"
)

// TestOneSolvePerFrontierBranch pins witness reuse on real agents: every
// frontier branch of a full run costs exactly one assumption solve (the
// path's witness proves one arm). That solve is ordered, so every witness
// is its path's canonical model and a completed path's model costs no
// solve at all, with models on or off. Without the witness a branch whose
// true arm is feasible costs two.
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
				checkComplete(t, name, res)
				if got := res.SolverStats.AssumptionSolves; got != res.BranchQueries {
					t.Errorf("%s: %d assumption solves for %d branch queries and %d paths, want %d",
						name, got, res.BranchQueries, len(res.Paths), res.BranchQueries)
				}
			}
		}
	}
}

// TestOneSolvePerFrontierBranchPrefixRun is the shard version. A
// prefix-seeded run starts without a witness, and it has none until its
// first frontier branch with a feasible true arm, which solves both arms;
// every other frontier branch costs one solve. A shard with no such branch
// is a single path that never gets a witness, so with models on its
// canonical model costs one solve of its own (the fallback in
// completePath); with models off it keeps no model and pays nothing. So a
// shard pays one solve more than its branch queries, except a models-off
// shard that never takes a true arm, which pays none more. Packet Out on
// ovs split at depth 5 has such shards.
func TestOneSolvePerFrontierBranchPrefixRun(t *testing.T) {
	test, ok := harness.TestByName("Packet Out")
	if !ok {
		t.Fatal("missing test Packet Out")
	}
	fallbacks := 0
	for _, agent := range []string{"ref", "ovs"} {
		a := agents.MustByName(agent)
		for _, depth := range []int{3, 5} {
			var prefixes [][]bool
			harness.Explore(a, test, harness.Options{
				ShardDepth: depth,
				ShardSink:  func(p []bool) { prefixes = append(prefixes, p) },
			})
			if len(prefixes) == 0 {
				t.Fatalf("%s depth %d: split produced no shards", agent, depth)
			}
			for _, prefix := range prefixes {
				for _, models := range []bool{true, false} {
					name := fmt.Sprintf("%s prefix %s models=%v", agent, symexec.FormatDecisions(prefix), models)
					sh := harness.ExploreShard(context.Background(), a, test, harness.Options{WantModels: models, Prefix: prefix, Workers: 1})
					checkComplete(t, name, sh.Result)
					tookTrue := slices.ContainsFunc(sh.Decisions, func(d []bool) bool {
						return slices.Contains(d[len(prefix):], true)
					})
					want := sh.BranchQueries
					switch {
					case tookTrue:
						want++
					case len(sh.Paths) != 1:
						t.Fatalf("%s: %d paths, none taking a true arm", name, len(sh.Paths))
					case models:
						fallbacks++
						want++
					}
					if got := sh.SolverStats.AssumptionSolves; got != want {
						t.Errorf("%s: %d assumption solves for %d branch queries and %d paths, want %d",
							name, got, sh.BranchQueries, len(sh.Paths), want)
					}
				}
			}
		}
	}
	if fallbacks == 0 {
		t.Error("every shard took a true arm: the canonical-model fallback went untested")
	}
}

// TestModelsOffSolvesLikeModelsOn pins that WantModels only decides
// whether a path's model is kept: a models-off run asks the SAT core the
// same ordered solves as a models-on run, making the same decisions,
// propagations and conflicts, and its results file is the models-on file
// without its model lines.
func TestModelsOffSolvesLikeModelsOn(t *testing.T) {
	for _, name := range []string{"Packet Out", "FlowMod"} {
		test, ok := harness.TestByName(name)
		if !ok {
			t.Fatalf("missing test %s", name)
		}
		for _, agent := range []string{"ref", "ovs"} {
			var sat [2][3]int64
			var files [2][]byte
			for i, models := range []bool{true, false} {
				dec, prop, conf := bitblast.MDecisions.Load(), bitblast.MPropagations.Load(), bitblast.MConflicts.Load()
				res := harness.Explore(agents.MustByName(agent), test, harness.Options{WantModels: models, Workers: 1})
				sat[i] = [3]int64{bitblast.MDecisions.Load() - dec, bitblast.MPropagations.Load() - prop, bitblast.MConflicts.Load() - conf}
				checkComplete(t, agent+"/"+name, res)
				res.Elapsed = 0
				var buf bytes.Buffer
				if err := res.Write(&buf); err != nil {
					t.Fatal(err)
				}
				files[i] = buf.Bytes()
			}
			if sat[0] != sat[1] {
				t.Errorf("%s/%s: decisions, propagations, conflicts %v with models on, %v with models off",
					agent, name, sat[0], sat[1])
			}
			var stripped []byte
			for _, line := range bytes.SplitAfter(files[0], []byte("\n")) {
				if !bytes.HasPrefix(line, []byte("model ")) {
					stripped = append(stripped, line...)
				}
			}
			if !bytes.Equal(stripped, files[1]) {
				t.Errorf("%s/%s: the models-off file is not the models-on file without its model lines", agent, name)
			}
		}
	}
}

func checkComplete(t *testing.T, name string, res *harness.Result) {
	t.Helper()
	if res.Infeasible != 0 || res.DepthTruncated != 0 || res.Truncated {
		t.Fatalf("%s: want a complete run with no abandoned paths, got %d infeasible, %d cut, truncated %v",
			name, res.Infeasible, res.DepthTruncated, res.Truncated)
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
