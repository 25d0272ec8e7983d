package harness_test

import (
	"context"
	"reflect"
	"testing"

	"github.com/soft-testing/soft/internal/agents/ovs"
	"github.com/soft-testing/soft/internal/agents/refswitch"
	"github.com/soft-testing/soft/internal/crosscheck"
	"github.com/soft-testing/soft/internal/group"
	"github.com/soft-testing/soft/internal/harness"
	"github.com/soft-testing/soft/internal/sym"
)

// TestDescribeReproducerLabels labels the reproducers of real ref-vs-ovs
// inconsistency witnesses, plus every explored path's model, by the test
// input each wire concretizes. The malformed-action witnesses, whose body
// no strict decoder accepts, must keep their message label.
func TestDescribeReproducerLabels(t *testing.T) {
	for _, tc := range []struct {
		test string
		want []string
		// minInc is the fewest inconsistencies the pair must show (ref
		// and ovs agree on Set Config, so its row has only path models).
		minInc int
	}{
		{"Packet Out", []string{"PACKET_OUT"}, 100},
		{"Eth FlowMod", []string{"FLOW_MOD", "dataplane-probe"}, 100},
		{"Set Config", []string{"SET_CONFIG", "dataplane-probe"}, 0},
	} {
		t.Run(tc.test, func(t *testing.T) {
			tt, ok := harness.TestByName(tc.test)
			if !ok {
				t.Fatalf("missing test %s", tc.test)
			}
			opts := harness.Options{WantModels: true}
			ra := harness.Explore(refswitch.New(), tt, opts)
			rb := harness.Explore(ovs.New(), tt, opts)
			rep := crosscheck.RunOpts(context.Background(),
				group.Paths(ra), group.Paths(rb), crosscheck.Opts{})
			if len(rep.Inconsistencies) < tc.minInc {
				t.Fatalf("%d inconsistencies, want at least %d", len(rep.Inconsistencies), tc.minInc)
			}
			var witnesses []sym.Assignment
			for _, inc := range rep.Inconsistencies {
				witnesses = append(witnesses, inc.Witness)
			}
			for _, r := range []*harness.Result{ra, rb} {
				for _, p := range r.Paths {
					witnesses = append(witnesses, p.Model)
				}
			}
			for i, w := range witnesses {
				if got := harness.DescribeReproducer(tt, harness.Reproduce(tt, w)); !reflect.DeepEqual(got, tc.want) {
					t.Fatalf("witness %d (%v): labels %v, want %v", i, w, got, tc.want)
				}
			}
		})
	}
}
