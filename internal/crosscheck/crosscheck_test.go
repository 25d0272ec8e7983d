package crosscheck

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/soft-testing/soft/internal/agents"
	"github.com/soft-testing/soft/internal/agents/ovs"
	"github.com/soft-testing/soft/internal/agents/refswitch"
	"github.com/soft-testing/soft/internal/dataplane"
	"github.com/soft-testing/soft/internal/group"
	"github.com/soft-testing/soft/internal/harness"
	"github.com/soft-testing/soft/internal/openflow"
	"github.com/soft-testing/soft/internal/sym"
	"github.com/soft-testing/soft/internal/trace"
)

func grouped(t *testing.T, a agents.Agent, test string) *group.Result {
	t.Helper()
	tt, ok := harness.TestByName(test)
	if !ok {
		t.Fatalf("missing test %s", test)
	}
	r := harness.Explore(a, tt, harness.Options{WantModels: true})
	return group.Paths(r.Serialized())
}

func TestSelfCrosscheckIsClean(t *testing.T) {
	// An agent crosschecked against itself has identical groups
	// everywhere: zero inconsistencies (soundness smoke test).
	ga := grouped(t, refswitch.New(), "Stats Request")
	rep := RunOpts(context.Background(), ga, ga, Opts{Workers: 1})
	if len(rep.Inconsistencies) != 0 {
		t.Fatalf("self-check found %d inconsistencies", len(rep.Inconsistencies))
	}
}

func TestStatsRequestFindsSilentIgnores(t *testing.T) {
	// §5.1.2 "Statistics requests silently ignored": ref is silent where
	// OVS errors.
	ga := grouped(t, refswitch.New(), "Stats Request")
	gb := grouped(t, ovs.New(), "Stats Request")
	rep := RunOpts(context.Background(), ga, gb, Opts{Workers: 1})
	if len(rep.Inconsistencies) == 0 {
		t.Fatal("expected inconsistencies")
	}
	found := false
	for _, inc := range rep.Inconsistencies {
		if inc.ACanonical == "<silent>" && strings.Contains(inc.BCanonical, "ERROR") {
			found = true
		}
	}
	if !found {
		t.Fatal("missing the silent-vs-error inconsistency class")
	}
}

func TestPacketOutFindsControllerCrash(t *testing.T) {
	// §5.1.2: Packet Out to OFPP_CONTROLLER crashes the reference switch;
	// OVS handles it. The witness must actually select the controller
	// port (or the other ref crash trigger, set_vlan_vid).
	ga := grouped(t, refswitch.New(), "Packet Out")
	gb := grouped(t, ovs.New(), "Packet Out")
	rep := RunOpts(context.Background(), ga, gb, Opts{Workers: 1})
	found := false
	for _, inc := range rep.Inconsistencies {
		if inc.ACrashed && !inc.BCrashed {
			port := inc.Witness["po.out.port"]
			act := inc.Witness["po.act0.type"]
			if port == 0xfffd || act == 1 {
				found = true
				break
			}
		}
	}
	if !found {
		t.Fatal("controller-port / set-vlan crash inconsistency not found")
	}
}

func TestWitnessesAreRealInconsistencies(t *testing.T) {
	// No false positives (§3.4): every witness must satisfy both group
	// conditions, and the two groups' outputs must actually differ under
	// it.
	ga := grouped(t, refswitch.New(), "Stats Request")
	gb := grouped(t, ovs.New(), "Stats Request")
	rep := RunOpts(context.Background(), ga, gb, Opts{Workers: 1})
	for _, inc := range rep.Inconsistencies {
		condA := ga.Groups[inc.AIndex].Cond
		condB := gb.Groups[inc.BIndex].Cond
		if !sym.EvalBool(condA, inc.Witness) {
			t.Fatalf("witness does not satisfy agent A's condition: %v", inc.Witness)
		}
		if !sym.EvalBool(condB, inc.Witness) {
			t.Fatalf("witness does not satisfy agent B's condition: %v", inc.Witness)
		}
		// Same template => some expression pair must differ under the
		// witness.
		if inc.ATemplate == inc.BTemplate {
			ea, eb := ga.Groups[inc.AIndex].Exprs, gb.Groups[inc.BIndex].Exprs
			differ := false
			for k := range ea {
				if sym.Eval(ea[k], inc.Witness) != sym.Eval(eb[k], inc.Witness) {
					differ = true
					break
				}
			}
			if !differ {
				t.Fatalf("witness %v does not distinguish equal-shape traces", inc.Witness)
			}
		}
	}
}

func TestWitnessReplayDiffers(t *testing.T) {
	// End-to-end no-false-positive check: replay each witness concretely
	// through both agents and require different canonical traces.
	tt, _ := harness.TestByName("Packet Out")
	ga := grouped(t, refswitch.New(), "Packet Out")
	gb := grouped(t, ovs.New(), "Packet Out")
	rep := RunOpts(context.Background(), ga, gb, Opts{Workers: 1})
	if len(rep.Inconsistencies) == 0 {
		t.Fatal("expected inconsistencies")
	}
	checked := 0
	for _, inc := range rep.Inconsistencies {
		if checked >= 10 {
			break
		}
		checked++
		concrete := harness.Test{
			Name: "replay", MsgCount: tt.MsgCount,
			Inputs: func(harness.NewSymFn) []harness.Input {
				return tt.Inputs(func(name string, w int) *sym.Expr {
					return sym.Const(w, inc.Witness[name])
				})
			},
		}
		ra := harness.Explore(refswitch.New(), concrete, harness.Options{})
		rb := harness.Explore(ovs.New(), concrete, harness.Options{})
		if len(ra.Paths) != 1 || len(rb.Paths) != 1 {
			t.Fatalf("concrete replay forked: %d / %d paths", len(ra.Paths), len(rb.Paths))
		}
		ca := ra.Paths[0].Trace.Canonical()
		cb := rb.Paths[0].Trace.Canonical()
		if ca == cb {
			t.Fatalf("witness %v replays identically on both agents: %s", inc.Witness, ca)
		}
	}
}

func TestQueryBound(t *testing.T) {
	// §3.4: at most |RES_A| x |RES_B| solver queries.
	ga := grouped(t, refswitch.New(), "Stats Request")
	gb := grouped(t, ovs.New(), "Stats Request")
	rep := RunOpts(context.Background(), ga, gb, Opts{Workers: 1})
	if rep.Queries > len(ga.Groups)*len(gb.Groups) {
		t.Fatalf("%d queries exceed the %d bound", rep.Queries, len(ga.Groups)*len(gb.Groups))
	}
}

func TestBudgetMarksPartial(t *testing.T) {
	ga := grouped(t, refswitch.New(), "Packet Out")
	gb := grouped(t, ovs.New(), "Packet Out")
	rep := RunOpts(context.Background(), ga, gb, Opts{Budget: time.Nanosecond, Workers: 1})
	if !rep.Partial {
		t.Fatal("nanosecond budget must leave the check partial")
	}
}

func TestRootCausesFewerThanInconsistencies(t *testing.T) {
	// §5.2: one root cause manifests many times; template-pair dedup must
	// compress the report.
	ga := grouped(t, refswitch.New(), "Packet Out")
	gb := grouped(t, ovs.New(), "Packet Out")
	rep := RunOpts(context.Background(), ga, gb, Opts{Workers: 1})
	if len(rep.Inconsistencies) < 10 {
		t.Fatalf("expected a rich inconsistency set, got %d", len(rep.Inconsistencies))
	}
	if rc := rep.RootCauses(); rc >= len(rep.Inconsistencies) {
		t.Fatalf("root causes %d not fewer than inconsistencies %d", rc, len(rep.Inconsistencies))
	}
}

// TestSessionCounters: every query the fast path does not decide is one
// assumption solve on a worker's session, and the sessions
// serve group conditions encoded for earlier queries from their activation
// caches.
func TestSessionCounters(t *testing.T) {
	ga := grouped(t, refswitch.New(), "Packet Out")
	gb := grouped(t, ovs.New(), "Packet Out")
	for _, workers := range []int{1, 2} {
		st := RunOpts(context.Background(), ga, gb, Opts{Workers: workers}).SolverStats
		if st.ConstraintsReused == 0 {
			t.Errorf("workers=%d: no constraint reused: %+v", workers, st)
		}
		if want := st.Queries - st.FastPathConst; st.AssumptionSolves != want {
			t.Errorf("workers=%d: AssumptionSolves = %d, want Queries-FastPathConst = %d",
				workers, st.AssumptionSolves, want)
		}
	}
}

func TestInconsistencyString(t *testing.T) {
	inc := Inconsistency{AIndex: 1, BIndex: 2, ACanonical: "a\nb", BCanonical: "c"}
	s := inc.String()
	if !strings.Contains(s, "A#1") || !strings.Contains(s, "a | b") {
		t.Fatalf("rendering %q", s)
	}
}

// TestDiffCond: the difference condition of two groups, built from their
// traces as grouping does.
func TestDiffCond(t *testing.T) {
	grp := func(outputs []any, crashed bool) *group.Group {
		tr := trace.FromOutputs(outputs, crashed)
		return &group.Group{Template: tr.Template(), Exprs: tr.Exprs()}
	}
	// Agent A forwards with vlan = x & 0xfff (auto-masking); agent B
	// forwards with vlan = x. They differ exactly when x has high bits set.
	vid := sym.Var("vid", 16)
	masked, raw := dataplane.TCPProbe(1), dataplane.TCPProbe(1)
	masked.VLAN = sym.And(vid, sym.Const(16, 0x0fff))
	raw.VLAN = vid
	port := sym.Var("x", 16)
	for _, tc := range []struct {
		name string
		a, b *group.Group
		// always and never require the constant true or false; samples
		// maps a vid value to whether the groups differ on it.
		always, never bool
		samples       map[uint64]bool
	}{
		{name: "different templates",
			a:      grp([]any{trace.Error(openflow.ErrBadRequest, 0)}, false),
			b:      grp([]any{trace.Drop("probe")}, false),
			always: true},
		{name: "identical",
			a:     grp([]any{trace.PacketOut(port, dataplane.TCPProbe(1))}, false),
			b:     grp([]any{trace.PacketOut(port, dataplane.TCPProbe(1))}, false),
			never: true},
		{name: "semantic disequality",
			a: grp([]any{trace.PacketOut(sym.Const(16, 2), masked)}, false),
			b: grp([]any{trace.PacketOut(sym.Const(16, 2), raw)}, false),
			// 0x100 fits 12 bits: no observable difference; 0x1fff is
			// masked on one side only.
			samples: map[uint64]bool{0x100: false, 0x1fff: true}},
		{name: "crash vs normal",
			a:      grp(nil, true),
			b:      grp(nil, false),
			always: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cond := diffCond(tc.a, tc.b)
			switch {
			case tc.always && !cond.IsTrue():
				t.Fatalf("must always differ, got %v", cond)
			case tc.never && !cond.IsFalse():
				t.Fatalf("can never differ, got %v", cond)
			case tc.samples != nil && (cond.IsTrue() || cond.IsFalse()):
				t.Fatalf("expected a conditional difference, got %v", cond)
			}
			for v, want := range tc.samples {
				if got := sym.EvalBool(cond, sym.Assignment{"vid": v}); got != want {
					t.Errorf("vid=%#x: differs=%v, want %v", v, got, want)
				}
			}
		})
	}
}

func BenchmarkCrosscheckStatsRequest(b *testing.B) {
	tt, _ := harness.TestByName("Stats Request")
	ra := harness.Explore(refswitch.New(), tt, harness.Options{})
	rb := harness.Explore(ovs.New(), tt, harness.Options{})
	ga := group.Paths(ra.Serialized())
	gb := group.Paths(rb.Serialized())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunOpts(context.Background(), ga, gb, Opts{Workers: 1})
	}
}
