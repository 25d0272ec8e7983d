// Tests for the public soft API: the acceptance surface of the package —
// registry lookup, pipeline composition, progress events, context
// cancellation with partial results, and exhaustive-run determinism
// through the public wrapper.
package soft

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestAgentRegistry checks the registry the CLI, examples and report all
// share: the three built-ins resolve (with aliases), and unknown names
// fail with an error listing what is registered.
func TestAgentRegistry(t *testing.T) {
	names := Agents()
	for _, want := range []string{"ref", "modified", "ovs"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("registry misses built-in agent %q (have %v)", want, names)
		}
	}
	for alias, canonical := range map[string]string{
		"ref": "Reference Switch", "reference": "Reference Switch",
		"ovs": "Open vSwitch", "openvswitch": "Open vSwitch",
		"modified": "Modified Switch", "mod": "Modified Switch",
	} {
		a, err := AgentByName(alias)
		if err != nil {
			t.Fatalf("AgentByName(%q): %v", alias, err)
		}
		if a.Name() != canonical {
			t.Fatalf("AgentByName(%q).Name() = %q, want %q", alias, a.Name(), canonical)
		}
	}
	_, err := AgentByName("nosuch")
	if err == nil {
		t.Fatal("AgentByName(nosuch) succeeded")
	}
	for _, want := range []string{"nosuch", "ref", "modified", "ovs"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unknown-agent error %q does not mention %q", err, want)
		}
	}
}

// TestPublicPipeline runs the full Figure-1-style flow through the public
// API only: explore both agents, group, crosscheck, reproduce — and checks
// the known ref-vs-modified Packet Out findings surface.
func TestPublicPipeline(t *testing.T) {
	ctx := context.Background()
	ref, err := AgentByName("ref")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := AgentByName("modified")
	if err != nil {
		t.Fatal(err)
	}
	test, ok := TestByName("Packet Out")
	if !ok {
		t.Fatal("missing test Packet Out")
	}

	ra, err := Explore(ctx, ref, test, WithModels(true))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Explore(ctx, mod, test, WithModels(true))
	if err != nil {
		t.Fatal(err)
	}
	if ra.Truncated || rb.Truncated {
		t.Fatal("exhaustive exploration reported truncation")
	}

	rep, err := CrossCheck(ctx, Group(ra), Group(rb))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Inconsistencies) == 0 {
		t.Fatal("ref vs modified found no inconsistencies")
	}
	all := ""
	for _, inc := range rep.Inconsistencies {
		all += inc.ACanonical + "\n" + inc.BCanonical + "\n"
		if len(inc.Witness) == 0 {
			t.Errorf("inconsistency %d has no witness", inc.AIndex)
		}
	}
	// Injected modification 1 (FLOOD rejected) and 2 (error code 5 for
	// port 0) are both visible on Packet Out.
	for _, want := range []string{"port=FLOOD", "ERROR/BAD_ACTION/5"} {
		if !strings.Contains(all, want) {
			t.Errorf("inconsistency set misses known finding %q", want)
		}
	}
	// Witnesses concretize into wire messages.
	wires := Reproduce(test, rep.Inconsistencies[0].Witness)
	if len(wires) == 0 {
		t.Fatal("Reproduce built no messages")
	}
	if labels := DescribeReproducer(test, wires); len(labels) != len(wires) {
		t.Fatalf("DescribeReproducer: %d labels for %d wires", len(labels), len(wires))
	}
}

// TestCrossCheckTestMismatch pins the usage error for crosschecking
// results from different tests.
func TestCrossCheckTestMismatch(t *testing.T) {
	ctx := context.Background()
	ref, _ := AgentByName("ref")
	t1, _ := TestByName("Packet Out")
	t2, _ := TestByName("Set Config")
	ra, err := Explore(ctx, ref, t1)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Explore(ctx, ref, t2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CrossCheck(ctx, Group(ra), Group(rb)); err == nil {
		t.Fatal("CrossCheck across different tests succeeded")
	}
}

// explodingHandler branches on 18 independent bits — 2^18 paths, far more
// than any test waits for — so cancellation tests can observe a mid-run
// stop.
func explodingHandler(ctx *ExecContext) {
	n := 0
	for i := 0; i < 18; i++ {
		b := ctx.NewSym(fmt.Sprintf("b%02d", i), 1)
		if ctx.Branch(EqConst(b, 1)) {
			n++
		}
	}
	ctx.Emit(n)
}

// TestExploreHandlerCancellation is the acceptance check: cancelling the
// context mid-exploration returns promptly with a partial, Truncated=true
// result — for both the sequential and the parallel engine.
func TestExploreHandlerCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var events atomic.Int64
		res, err := ExploreHandler(ctx, explodingHandler,
			WithWorkers(workers),
			WithProgress(func(ev Event) {
				if ev.Phase != PhaseExplore {
					t.Errorf("unexpected phase %q", ev.Phase)
				}
				if events.Add(1) >= 40 {
					cancel()
				}
			}))
		cancel()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !res.Cancelled || !res.PathsTruncated {
			t.Fatalf("workers=%d: cancelled run: Cancelled=%t PathsTruncated=%t",
				workers, res.Cancelled, res.PathsTruncated)
		}
		if n := len(res.Paths); n == 0 || n >= 1<<18 {
			t.Fatalf("workers=%d: cancelled run kept %d paths, want partial non-empty set", workers, n)
		}
	}
}

// TestExploreCancellation is the same property through the full agent
// harness: the partial Result carries Truncated and Cancelled. Progress
// events dispatch asynchronously (the callback runs off the hot path), so
// the cancel lands a beat after the fifth path — the workload must be
// large enough to still be running then, hence FlowMod (1333 paths)
// rather than a fast test.
func TestExploreCancellation(t *testing.T) {
	ref, _ := AgentByName("ref")
	test, _ := TestByName("FlowMod")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := Explore(ctx, ref, test,
		WithProgress(func(ev Event) {
			if ev.Done >= 5 {
				cancel()
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || !res.Cancelled {
		t.Fatalf("cancelled explore: Truncated=%t Cancelled=%t", res.Truncated, res.Cancelled)
	}
	if n := len(res.Paths); n == 0 || n >= 1333 {
		t.Fatalf("cancelled explore kept %d paths, want a partial non-empty set", n)
	}
	// A cancelled partial result still serializes and reloads.
	var buf bytes.Buffer
	if err := res.Write(&buf); err != nil {
		t.Fatal(err)
	}
	rt, err := ReadResults(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.Paths) != len(res.Paths) {
		t.Fatalf("round trip: %d paths, want %d", len(rt.Paths), len(res.Paths))
	}
	if !rt.Truncated || !rt.Cancelled {
		t.Fatalf("round trip lost partial flags: Truncated=%t Cancelled=%t", rt.Truncated, rt.Cancelled)
	}
}

// TestExploreDeterminismPublicAPI re-checks the byte-identical-results
// property through the public wrapper: worker count must not leak into the
// serialized intermediate results.
func TestExploreDeterminismPublicAPI(t *testing.T) {
	test, _ := TestByName("Packet Out")
	serialize := func(workers int) []byte {
		ref, _ := AgentByName("ref")
		res, err := Explore(context.Background(), ref, test,
			WithWorkers(workers), WithModels(true))
		if err != nil {
			t.Fatal(err)
		}
		res.Elapsed = 0 // the only wall-clock-dependent field in the format
		var buf bytes.Buffer
		if err := res.Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	seq := serialize(1)
	for _, workers := range []int{2, 4} {
		if !bytes.Equal(seq, serialize(workers)) {
			t.Fatalf("results with %d workers differ from sequential", workers)
		}
	}
}

// TestCrossCheckProgressAndCancellation covers the crosscheck side of the
// event stream and context plumbing.
func TestCrossCheckProgressAndCancellation(t *testing.T) {
	ctx := context.Background()
	ref, _ := AgentByName("ref")
	ovs, _ := AgentByName("ovs")
	test, _ := TestByName("Packet Out")
	ra, err := Explore(ctx, ref, test, WithModels(true))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Explore(ctx, ovs, test, WithModels(true))
	if err != nil {
		t.Fatal(err)
	}
	ga, gb := Group(ra), Group(rb)
	wantTotal := len(ga.Groups) * len(gb.Groups)

	var done, total atomic.Int64
	rep, err := CrossCheck(ctx, ga, gb, WithWorkers(1),
		WithProgress(func(ev Event) {
			if ev.Phase != PhaseCrossCheck {
				t.Errorf("unexpected phase %q", ev.Phase)
			}
			done.Store(int64(ev.Done))
			total.Store(int64(ev.Total))
		}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partial || rep.Cancelled {
		t.Fatalf("unbudgeted crosscheck reported Partial=%t Cancelled=%t", rep.Partial, rep.Cancelled)
	}
	if got := int(total.Load()); got != wantTotal {
		t.Fatalf("progress Total = %d, want %d", got, wantTotal)
	}
	if got := int(done.Load()); got != wantTotal {
		t.Fatalf("progress Done reached %d, want %d", got, wantTotal)
	}

	// Cancelling before the scan starts yields an empty partial report.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	rep, err = CrossCheck(cctx, ga, gb, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Cancelled || !rep.Partial {
		t.Fatalf("pre-cancelled crosscheck: Cancelled=%t Partial=%t", rep.Cancelled, rep.Partial)
	}
}

// TestProgressEventStats: each stage's final progress event carries its
// solver statistics, so embedders can observe session efficacy without a
// profiler.
func TestProgressEventStats(t *testing.T) {
	ctx := context.Background()
	ref, _ := AgentByName("ref")
	mod, _ := AgentByName("modified")
	test, _ := TestByName("Packet Out")

	var lastExplore *SolverStats
	ra, err := Explore(ctx, ref, test, WithModels(true),
		WithProgress(func(ev Event) {
			if ev.Stats != nil {
				lastExplore = ev.Stats
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	if lastExplore == nil {
		t.Fatal("explore emitted no stats event")
	}
	if lastExplore.Queries != ra.SolverStats.Queries ||
		lastExplore.AssumptionSolves != ra.SolverStats.AssumptionSolves {
		t.Fatalf("stats event %+v does not match Result.SolverStats %+v", lastExplore, ra.SolverStats)
	}

	rb, err := Explore(ctx, mod, test, WithModels(true))
	if err != nil {
		t.Fatal(err)
	}
	var lastCheck *SolverStats
	rep, err := CrossCheck(ctx, Group(ra), Group(rb),
		WithProgress(func(ev Event) {
			if ev.Stats != nil {
				lastCheck = ev.Stats
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	if lastCheck == nil {
		t.Fatal("crosscheck emitted no stats event")
	}
	if lastCheck.Queries != rep.SolverStats.Queries {
		t.Fatalf("stats event queries %d, report says %d", lastCheck.Queries, rep.SolverStats.Queries)
	}
	if rep.SolverStats.Queries != int64(rep.Queries) {
		t.Fatalf("report SolverStats.Queries = %d, want the %d crosscheck queries",
			rep.SolverStats.Queries, rep.Queries)
	}
}

// TestExploreHandlerTimeout exercises deadline-based cancellation (the
// form a coordinator would use): a deadline in the past must return
// immediately with an empty truncated result rather than exploring, at
// every worker count. Each case repeats, since a worker that starts a path
// before looking at the context would only fail some of the time.
func TestExploreHandlerTimeout(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			for i := 0; i < 50; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), -time.Second)
				res, err := ExploreHandler(ctx, explodingHandler, WithWorkers(workers))
				cancel()
				if err != nil {
					t.Fatal(err)
				}
				if !res.Cancelled || !res.PathsTruncated {
					t.Fatalf("run %d: expired-deadline run: Cancelled=%t PathsTruncated=%t", i, res.Cancelled, res.PathsTruncated)
				}
				if len(res.Paths) != 0 {
					t.Fatalf("run %d: expired-deadline run explored %d paths", i, len(res.Paths))
				}
			}
		})
	}
}

// TestNegativeCapsRejected: the engine reads a cap <= 0 as "unbounded", so
// Explore, ExploreHandler and RunMatrix refuse a negative WithMaxPaths or
// WithMaxDepth instead of silently exploring everything.
func TestNegativeCapsRejected(t *testing.T) {
	ref, _ := AgentByName("ref")
	test, _ := TestByName("Concrete")
	oneBranch := func(ctx *ExecContext) {
		ctx.Emit(ctx.Branch(EqConst(ctx.NewSym("b", 1), 1)))
	}
	bg := context.Background()
	calls := []struct {
		name string
		run  func(Option) error
	}{
		{"Explore", func(o Option) error { _, err := Explore(bg, ref, test, o); return err }},
		{"ExploreHandler", func(o Option) error { _, err := ExploreHandler(bg, oneBranch, o); return err }},
		{"RunMatrix", func(o Option) error {
			_, err := RunMatrix(bg, []string{"ref"}, []string{"Concrete"}, WithCrossCheck(false), o)
			return err
		}},
	}
	caps := []struct {
		name string
		opt  Option
	}{
		{"MaxPaths", WithMaxPaths(-1)},
		{"MaxDepth", WithMaxDepth(-1)},
	}
	for _, c := range calls {
		for _, cp := range caps {
			t.Run(c.name+"/"+cp.name, func(t *testing.T) {
				err := c.run(cp.opt)
				if err == nil || !strings.Contains(err.Error(), "negative "+cp.name) {
					t.Fatalf("%s with a negative %s: err = %v, want a rejection naming it", c.name, cp.name, err)
				}
			})
		}
	}
}
