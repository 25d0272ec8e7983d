package soft_test

import (
	"bytes"
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/soft-testing/soft"
)

// resultBytes serializes a result with the wall clock zeroed, the byte
// surface every determinism assertion compares.
func resultBytes(t *testing.T, res *soft.Result) []byte {
	t.Helper()
	res.Elapsed = 0
	var buf bytes.Buffer
	if err := res.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestScenarioRegistryPublicAPI covers the scenario surface of the root
// package: listing, lookup, generated resolution, and the compiled Test's
// resolution through TestByName (what sched and dist workers both use).
func TestScenarioRegistryPublicAPI(t *testing.T) {
	names := soft.ScenarioNames()
	if len(names) < 8 {
		t.Fatalf("seed library has %d scenarios, want at least 8", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("ScenarioNames not sorted: %q before %q", names[i-1], names[i])
		}
	}
	if len(soft.Scenarios()) != len(names) {
		t.Fatalf("Scenarios() and ScenarioNames() disagree on length")
	}
	for _, name := range names {
		sc, ok := soft.ScenarioByName(name)
		if !ok {
			t.Fatalf("ScenarioByName(%q) = false for a listed scenario", name)
		}
		test := sc.Test()
		if test.DefHash == "" {
			t.Fatalf("scenario %q compiles to a test without a DefHash", name)
		}
		if test.MsgCount != len(sc.Steps) {
			t.Fatalf("scenario %q: MsgCount %d != %d steps", name, test.MsgCount, len(sc.Steps))
		}
		via, ok := soft.TestByName(name)
		if !ok || via.DefHash != test.DefHash {
			t.Fatalf("TestByName(%q) does not resolve to the scenario's test", name)
		}
	}

	// Table 1 names keep resolving to the builtin suite, hash-free.
	if builtin, ok := soft.TestByName("Packet Out"); !ok || builtin.DefHash != "" {
		t.Fatalf("Table 1 test resolution changed: ok=%v DefHash=%q", ok, builtin.DefHash)
	}

	n := soft.GeneratedScenarioCount()
	if n < 100 {
		t.Fatalf("generator enumerates %d scenarios, want a substantive space", n)
	}
	for _, idx := range []int{0, 1, n / 2, n - 1} {
		g, ok := soft.GeneratedScenario(idx)
		if !ok {
			t.Fatalf("GeneratedScenario(%d) = false inside the enumeration", idx)
		}
		byName, ok := soft.ScenarioByName(g.Name)
		if !ok || byName.Test().DefHash != g.Test().DefHash {
			t.Fatalf("generated scenario %q does not round-trip through ByName", g.Name)
		}
	}
	if _, ok := soft.GeneratedScenario(n); ok {
		t.Fatalf("GeneratedScenario(%d) resolved outside the enumeration", n)
	}
	for _, bad := range []string{"gen:", "gen:-1", "gen:007", "gen:99999999"} {
		if _, ok := soft.ScenarioByName(bad); ok {
			t.Fatalf("ScenarioByName(%q) resolved a non-canonical generated name", bad)
		}
	}
}

// TestScenarioDeterminismAcrossLayouts is the scenario subsystem's core
// guarantee: exploring a stateful scenario sequentially, with 4 in-process
// workers, and on a 2-worker distributed fleet must produce byte-identical
// serialized results. Covers one seed scenario and one generated one.
func TestScenarioDeterminismAcrossLayouts(t *testing.T) {
	ctx := context.Background()
	agent, err := soft.AgentByName("ref")
	if err != nil {
		t.Fatal(err)
	}
	gen, ok := soft.GeneratedScenario(79)
	if !ok {
		t.Fatal("GeneratedScenario(79) missing")
	}
	for _, name := range []string{"Netplugin VXLAN", gen.Name} {
		sc, ok := soft.ScenarioByName(name)
		if !ok {
			t.Fatalf("scenario %q missing", name)
		}
		test := sc.Test()

		seq, err := soft.Explore(ctx, agent, test, soft.WithModels(true), soft.WithWorkers(1))
		if err != nil {
			t.Fatalf("%s sequential: %v", name, err)
		}
		want := resultBytes(t, seq)
		if len(seq.Paths) == 0 {
			t.Fatalf("%s explored no paths", name)
		}

		par, err := soft.Explore(ctx, agent, test, soft.WithModels(true), soft.WithWorkers(4))
		if err != nil {
			t.Fatalf("%s workers=4: %v", name, err)
		}
		if got := resultBytes(t, par); !bytes.Equal(got, want) {
			t.Fatalf("%s: workers=4 result differs from sequential (%d vs %d bytes)", name, len(got), len(want))
		}

		// A one-cell campaign on a 2-worker fleet resolves the scenario by
		// name on each worker, exercising the registered-test-source path
		// end to end. Both workers are connected before the campaign
		// starts, and shard depth 1 keeps the coordinator from consuming
		// these small trees inline — the shards must flow through the
		// workers.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		workDone := make(chan error, 2)
		for i := 0; i < 2; i++ {
			go func() {
				workDone <- soft.Work(ctx, ln.Addr().String(), soft.WithWorkers(2))
			}()
		}
		type outcome struct {
			rep *soft.MatrixReport
			err error
		}
		fleetLn := acceptedListener(t, ln, 2)
		fleetDone := make(chan outcome, 1)
		go func() {
			rep, err := soft.RunMatrix(ctx, []string{"ref"}, []string{name},
				soft.WithModels(true), soft.WithShardDepth(1),
				soft.WithCrossCheck(false), soft.WithFleetListener(fleetLn))
			fleetDone <- outcome{rep, err}
		}()
		var rep *soft.MatrixReport
		select {
		case o := <-fleetDone:
			if o.err != nil {
				t.Fatalf("%s fleet RunMatrix: %v", name, o.err)
			}
			rep = o.rep
		case <-time.After(2 * time.Minute):
			t.Fatalf("%s: fleet exploration did not complete", name)
		}
		for i := 0; i < 2; i++ {
			select {
			case err := <-workDone:
				if err != nil {
					t.Errorf("%s Work: %v", name, err)
				}
			case <-time.After(30 * time.Second):
				t.Fatalf("%s: worker did not exit", name)
			}
		}
		if rep.FleetStats == nil || rep.FleetStats.ShardsLeased == 0 {
			t.Fatalf("%s: no shard went through the fleet: %+v", name, rep.FleetStats)
		}
		res := rep.Cells[0].Result
		res.Elapsed = 0
		var got bytes.Buffer
		if err := res.Write(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%s: 2-worker fleet result differs from sequential (%d vs %d bytes)", name, got.Len(), len(want))
		}
	}
}

// statefulSignature matches the §5.1.2-style divergence the Add Modify
// scenario pins: both agents answer the probe with a structurally
// identical PACKET_OUT (equal templates) whose nw_tos content differs —
// the reference switch masks a modify's invalid SET_NW_TOS argument while
// OVS silently drops the whole modify, so the probe replays the original
// ToS on one side and the masked variable on the other.
func statefulSignature(inc soft.Inconsistency) bool {
	return inc.ATemplate == inc.BTemplate &&
		strings.Contains(inc.ATemplate, "pkt-out") &&
		inc.ACanonical != inc.BCanonical &&
		strings.Contains(inc.ACanonical, "nw_tos") &&
		strings.Contains(inc.BCanonical, "nw_tos")
}

// crosscheckSignatures explores ref and ovs on one test and counts
// inconsistencies matching statefulSignature.
func crosscheckSignatures(t *testing.T, test soft.Test, opts ...soft.Option) int {
	t.Helper()
	ctx := context.Background()
	ref, err := soft.AgentByName("ref")
	if err != nil {
		t.Fatal(err)
	}
	ovs, err := soft.AgentByName("ovs")
	if err != nil {
		t.Fatal(err)
	}
	opts = append(opts, soft.WithModels(true), soft.WithWorkers(4))
	ra, err := soft.Explore(ctx, ref, test, opts...)
	if err != nil {
		t.Fatalf("%s ref: %v", test.Name, err)
	}
	rb, err := soft.Explore(ctx, ovs, test, opts...)
	if err != nil {
		t.Fatalf("%s ovs: %v", test.Name, err)
	}
	rep, err := soft.CrossCheck(ctx, soft.Group(ra), soft.Group(rb))
	if err != nil {
		t.Fatalf("%s crosscheck: %v", test.Name, err)
	}
	n := 0
	for _, inc := range rep.Inconsistencies {
		if statefulSignature(inc) {
			n++
		}
	}
	return n
}

// TestScenarioExposesStatefulInconsistency is the pinned regression for
// the subsystem's reason to exist: the Add Modify seed scenario surfaces a
// ref-vs-ovs inconsistency that needs flow-table state — install a flow,
// modify it with an invalid SET_NW_TOS, probe — while no single-message
// Table 1 test reports any inconsistency with the same signature, even
// scanned at a canonical path cap. If the scenario count drops to zero or
// the Table 1 scan starts matching, the stateful coverage claim is broken.
func TestScenarioExposesStatefulInconsistency(t *testing.T) {
	sc, ok := soft.ScenarioByName("Add Modify")
	if !ok {
		t.Fatal("Add Modify seed scenario missing")
	}
	if got := crosscheckSignatures(t, sc.Test()); got < 1 {
		t.Fatalf("Add Modify scenario: %d stateful-signature inconsistencies, want at least 1", got)
	}

	if testing.Short() {
		t.Skip("Table 1 scan skipped in -short mode")
	}
	for _, test := range soft.Tests() {
		if got := crosscheckSignatures(t, test,
			soft.WithMaxPaths(60), soft.WithCanonicalCut(true)); got != 0 {
			t.Errorf("single-message test %q reports %d stateful-signature inconsistencies, want 0", test.Name, got)
		}
	}
}
