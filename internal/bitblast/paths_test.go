package bitblast_test

import (
	"context"
	"reflect"
	"testing"

	"github.com/soft-testing/soft/internal/agents"
	_ "github.com/soft-testing/soft/internal/agents/modified"  // register "modified"
	_ "github.com/soft-testing/soft/internal/agents/ovs"       // register "ovs"
	_ "github.com/soft-testing/soft/internal/agents/refswitch" // register "ref"
	"github.com/soft-testing/soft/internal/bitblast"
	"github.com/soft-testing/soft/internal/harness"
)

// TestCanonicalModelMatchesProbesOnPaths is the fresh-solver oracle for
// the exploration engine's per-worker sessions: for every path condition of
// the reference and Open vSwitch agents on Stats Request and Packet Out,
// the path must be feasible on a fresh Blaster, and the canonical model from
// a fresh Blaster, from one Session shared by the test's paths, and the one
// the exploration recorded must all equal the probe loop's.
//
// The recorded model is the path's last witness (every exploration solve
// is ordered, so witnesses are canonical); the FlowMod runs check it at two
// workers against a fresh Blaster's CanonicalModel (per-bit probes are too
// slow there), and the shard runs check the models of subtrees whose roots
// start without a witness, including shards that never get one and fall
// back to the session's CanonicalModel.
func TestCanonicalModelMatchesProbesOnPaths(t *testing.T) {
	for _, agent := range []string{"ref", "ovs"} {
		for _, test := range []string{"Stats Request", "Packet Out"} {
			checkPathModels(t, agent, test)
		}
	}
	flowMod := mustTest(t, "FlowMod")
	for _, agent := range []string{"ref", "modified"} {
		res := harness.Explore(agents.MustByName(agent), flowMod, harness.Options{WantModels: true, Workers: 2})
		checkCanonicalModels(t, agent+"/FlowMod", res.Paths)
	}
	ethFlowMod := mustTest(t, "Eth FlowMod")
	for _, agent := range []string{"ref", "ovs"} {
		a := agents.MustByName(agent)
		var prefixes [][]bool
		harness.Explore(a, ethFlowMod, harness.Options{
			ShardDepth: 3,
			ShardSink:  func(p []bool) { prefixes = append(prefixes, p) },
		})
		if len(prefixes) == 0 {
			t.Fatalf("%s/Eth FlowMod: split produced no shards", agent)
		}
		for _, prefix := range prefixes {
			sh := harness.ExploreShard(context.Background(), a, ethFlowMod, harness.Options{
				WantModels: true, Prefix: prefix, Workers: 1,
			})
			checkCanonicalModels(t, agent+"/Eth FlowMod shard", sh.Paths)
		}
	}
}

func mustTest(t *testing.T, name string) harness.Test {
	t.Helper()
	test, ok := harness.TestByName(name)
	if !ok {
		t.Fatalf("unknown test %q", name)
	}
	return test
}

// checkCanonicalModels checks every path's recorded model against a fresh
// Blaster's canonical model of its condition.
func checkCanonicalModels(t *testing.T, name string, paths []harness.PathResult) {
	t.Helper()
	if len(paths) == 0 {
		t.Fatalf("%s: no paths", name)
	}
	for _, p := range paths {
		b := bitblast.New()
		b.Assert(p.Cond)
		want := b.CanonicalModel()
		if want == nil {
			t.Fatalf("%s path %d: condition is unsatisfiable", name, p.ID)
		}
		if !reflect.DeepEqual(p.Model, want) {
			t.Fatalf("%s path %d: explored model %v, Blaster.CanonicalModel %v", name, p.ID, p.Model, want)
		}
	}
}

func checkPathModels(t *testing.T, agent, testName string) {
	name := agent + "/" + testName
	test := mustTest(t, testName)
	res := harness.Explore(agents.MustByName(agent), test, harness.Options{
		WantModels: true, Workers: 1,
	})
	if res.Truncated || len(res.Paths) == 0 {
		t.Fatalf("%s: %d paths, truncated %v", name, len(res.Paths), res.Truncated)
	}
	sess := bitblast.NewSession()
	for _, p := range res.Paths {
		probe := bitblast.New()
		probe.Assert(p.Cond)
		want, ok := probe.CanonicalByProbes()
		if !ok {
			t.Fatalf("%s path %d: condition is unsatisfiable", name, p.ID)
		}
		if !reflect.DeepEqual(p.Model, want) {
			t.Fatalf("%s path %d: explored model %v, probes %v", name, p.ID, p.Model, want)
		}

		b := bitblast.New()
		b.Assert(p.Cond)
		if got := b.CanonicalModel(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s path %d: Blaster.CanonicalModel %v, probes %v", name, p.ID, got, want)
		}

		sess.Reset()
		sess.Assert(p.Cond)
		if got, ok := sess.CanonicalModel(); !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s path %d: Session.CanonicalModel %v (sat %v), probes %v", name, p.ID, got, ok, want)
		}
	}
	t.Logf("%s: %d paths", name, len(res.Paths))
}
