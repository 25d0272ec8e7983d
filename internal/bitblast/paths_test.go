package bitblast_test

import (
	"reflect"
	"testing"

	"github.com/soft-testing/soft/internal/agents"
	_ "github.com/soft-testing/soft/internal/agents/refswitch" // register "ref"
	"github.com/soft-testing/soft/internal/bitblast"
	"github.com/soft-testing/soft/internal/harness"
)

// TestCanonicalModelMatchesProbesOnPaths: for every path condition of the
// reference agent on Stats Request and Packet Out, the canonical model from
// a fresh Blaster, from one Session shared by the test's paths, and the one
// the exploration recorded must all equal the probe loop's.
func TestCanonicalModelMatchesProbesOnPaths(t *testing.T) {
	for _, name := range []string{"Stats Request", "Packet Out"} {
		test, ok := harness.TestByName(name)
		if !ok {
			t.Fatalf("unknown test %q", name)
		}
		res := harness.Explore(agents.MustByName("ref"), test, harness.Options{
			WantModels: true, Workers: 1, Incremental: true,
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
}
