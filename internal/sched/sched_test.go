package sched

import (
	"bytes"
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/soft-testing/soft/internal/agents/modified"
	"github.com/soft-testing/soft/internal/agents/refswitch"
	"github.com/soft-testing/soft/internal/dist"
	"github.com/soft-testing/soft/internal/harness"
	"github.com/soft-testing/soft/internal/obs"
	"github.com/soft-testing/soft/internal/store"
)

var (
	testAgents = []string{"ref", "modified"}
	testTests  = []string{"Packet Out", "Stats Request"}
)

func reportBytes(t *testing.T, r *Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatalf("Report.Write: %v", err)
	}
	return buf.Bytes()
}

// cellReference explores one cell the plain single-process way and
// serializes it with Elapsed zeroed.
func cellReference(t *testing.T, agentName, testName string) []byte {
	t.Helper()
	tt, ok := harness.TestByName(testName)
	if !ok {
		t.Fatalf("missing test %q", testName)
	}
	o := harness.Options{WantModels: true, Workers: 4, CanonicalCut: true}
	var r *harness.Result
	switch agentName {
	case "ref":
		r = harness.Explore(refswitch.New(), tt, o)
	case "modified":
		r = harness.Explore(modified.New(), tt, o)
	default:
		t.Fatalf("unknown agent %q", agentName)
	}
	ser := r.Serialized()
	ser.Elapsed = 0
	var buf bytes.Buffer
	if err := ser.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func cellBytes(t *testing.T, c *Cell) []byte {
	t.Helper()
	clone := *c.Result
	clone.Elapsed = 0
	var buf bytes.Buffer
	if err := clone.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMatrixLocal is the fleetless baseline: every cell matches an
// individual single-process exploration byte for byte, and the crosscheck
// phase covers every pair on every test.
func TestMatrixLocal(t *testing.T) {
	rep, err := RunMatrix(context.Background(), testAgents, testTests, Options{
		Models: true, CrossCheck: true,
	})
	if err != nil {
		t.Fatalf("RunMatrix: %v", err)
	}
	if len(rep.Cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(rep.Cells))
	}
	for i := range rep.Cells {
		c := &rep.Cells[i]
		if want := cellReference(t, c.Agent, c.Test); !bytes.Equal(cellBytes(t, c), want) {
			t.Errorf("cell %s / %s differs from individual exploration", c.Agent, c.Test)
		}
		if c.CacheHit {
			t.Errorf("cell %s / %s claims a cache hit with no store", c.Agent, c.Test)
		}
	}
	// 2 agents → 1 pair per test → 2 checks.
	if len(rep.Checks) != 2 {
		t.Fatalf("checks = %d, want 2", len(rep.Checks))
	}
	// ref vs modified on Packet Out must surface the injected
	// modifications (the §5.1.1 experiment's visible subset).
	pk := rep.Checks[0]
	if pk.Test != "Packet Out" || len(pk.Report.Inconsistencies) == 0 {
		t.Errorf("Packet Out check found no inconsistencies: %+v", pk)
	}
	if rep.SolverStats.Queries == 0 {
		t.Error("aggregated solver stats are empty")
	}
}

// TestMatrixFleetMatchesLocal is the tentpole acceptance property: the
// same matrix run over a persistent 2-worker fleet produces a
// byte-identical canonical report — and byte-identical cells — to the
// fleetless sequential run.
func TestMatrixFleetMatchesLocal(t *testing.T) {
	local, err := RunMatrix(context.Background(), testAgents, testTests, Options{
		Models: true, CrossCheck: true, Workers: 1,
	})
	if err != nil {
		t.Fatalf("local RunMatrix: %v", err)
	}
	want := reportBytes(t, local)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fleet := dist.NewFleet(ln, dist.FleetConfig{DrainTimeout: 200 * time.Millisecond})
	defer fleet.Close()
	ctx := context.Background()
	w1 := make(chan error, 1)
	w2 := make(chan error, 1)
	go func() { w1 <- dist.Work(ctx, ln.Addr().String(), dist.WorkerConfig{Workers: 2}) }()
	go func() { w2 <- dist.Work(ctx, ln.Addr().String(), dist.WorkerConfig{Workers: 2}) }()

	rep, err := RunMatrix(ctx, testAgents, testTests, Options{
		Models: true, CrossCheck: true, Fleet: fleet,
	})
	if err != nil {
		t.Fatalf("fleet RunMatrix: %v", err)
	}
	fleet.Close()
	for _, ch := range []<-chan error{w1, w2} {
		select {
		case err := <-ch:
			if err != nil {
				t.Errorf("worker: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Error("worker did not exit")
		}
	}

	if got := reportBytes(t, rep); !bytes.Equal(got, want) {
		t.Fatalf("fleet campaign report differs from fleetless run\n--- local\n%s\n--- fleet\n%s", want, got)
	}
	if rep.FleetStats == nil || rep.FleetStats.JobsCompleted != 4 {
		t.Errorf("fleet stats missing or wrong: %+v", rep.FleetStats)
	}
}

// TestMatrixExploresOnSessions runs cells with campaignd's option shape
// (nothing solver-related set) in-process and on a loopback fleet: every
// explored cell must have been answered by the per-worker incremental
// sessions.
func TestMatrixExploresOnSessions(t *testing.T) {
	ctx := context.Background()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fleet := dist.NewFleet(ln, dist.FleetConfig{DrainTimeout: 200 * time.Millisecond})
	defer fleet.Close()
	worker := make(chan error, 1)
	go func() { worker <- dist.Work(ctx, ln.Addr().String(), dist.WorkerConfig{Workers: 2}) }()

	for _, layout := range []struct {
		name  string
		fleet *dist.Fleet
	}{{"in-process", nil}, {"fleet", fleet}} {
		rep, err := RunMatrix(ctx, []string{"ref"}, []string{"Packet Out"}, Options{
			Models: true, Workers: 2, Fleet: layout.fleet, CodeVersion: "sessions-test",
		})
		if err != nil {
			t.Fatalf("%s RunMatrix: %v", layout.name, err)
		}
		for _, c := range rep.Cells {
			if c.SolverStats.AssumptionSolves == 0 {
				t.Errorf("%s cell %s / %s: no assumption solves (%+v)",
					layout.name, c.Agent, c.Test, c.SolverStats)
			}
		}
	}
	fleet.Close()
	if err := <-worker; err != nil {
		t.Errorf("worker: %v", err)
	}
}

// crashingWorker connects with the real Work loop under a context the test
// cancels after the first lease lands; the abrupt close mid-lease is the
// crash. (SIGKILL-level coverage lives in the cmd/soft e2e.)
func crashingWorker(t *testing.T, addr string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		dist.Work(ctx, addr, dist.WorkerConfig{Name: "crasher", Workers: 1})
	}()
	// Give it long enough to take a lease mid-campaign, then kill it.
	time.Sleep(150 * time.Millisecond)
	cancel()
	<-done
}

// TestMatrixWorkerCrash: losing a worker mid-campaign must not change the
// campaign output.
func TestMatrixWorkerCrash(t *testing.T) {
	local, err := RunMatrix(context.Background(), testAgents, testTests, Options{
		Models: true, CrossCheck: true, Workers: 1,
	})
	if err != nil {
		t.Fatalf("local RunMatrix: %v", err)
	}
	want := reportBytes(t, local)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fleet := dist.NewFleet(ln, dist.FleetConfig{DrainTimeout: 200 * time.Millisecond})
	defer fleet.Close()
	ctx := context.Background()

	repCh := make(chan *Report, 1)
	errCh := make(chan error, 1)
	go func() {
		rep, err := RunMatrix(ctx, testAgents, testTests, Options{
			Models: true, CrossCheck: true, Fleet: fleet,
		})
		repCh <- rep
		errCh <- err
	}()

	// One worker crashes mid-campaign; a healthy one finishes the job.
	go crashingWorker(t, ln.Addr().String())
	healthy := make(chan error, 1)
	go func() { healthy <- dist.Work(ctx, ln.Addr().String(), dist.WorkerConfig{Workers: 2}) }()

	rep := <-repCh
	if err := <-errCh; err != nil {
		t.Fatalf("fleet RunMatrix: %v", err)
	}
	fleet.Close()
	select {
	case <-healthy:
	case <-time.After(30 * time.Second):
		t.Error("healthy worker did not exit")
	}
	if got := reportBytes(t, rep); !bytes.Equal(got, want) {
		t.Fatal("campaign output changed after a worker crash")
	}
}

// TestMatrixStore is the satellite invalidation property at campaign
// level: a warm second run hits the store for every cell and produces
// byte-identical report output; changing the code version, the engine
// config, or MaxPaths misses.
func TestMatrixStore(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := Options{Models: true, CrossCheck: true, Store: st, CodeVersion: "v1"}

	cold, err := RunMatrix(context.Background(), testAgents, testTests, base)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	if cold.CacheHits != 0 || cold.CacheMisses != 4 {
		t.Fatalf("cold run: hits=%d misses=%d, want 0/4", cold.CacheHits, cold.CacheMisses)
	}
	if cold.GroupCacheHits != 0 {
		t.Fatalf("cold run claims group cache hits: %d", cold.GroupCacheHits)
	}

	var logBuf bytes.Buffer
	warmOpts := base
	warmOpts.Logger = obs.NewLogger(&logBuf, obs.LogText)
	warm, err := RunMatrix(context.Background(), testAgents, testTests, warmOpts)
	if err != nil {
		t.Fatalf("warm run: %v", err)
	}
	cachedLine := false
	for _, line := range strings.Split(logBuf.String(), "\n") {
		if strings.Contains(line, `msg="cell cached"`) &&
			strings.Contains(line, "agent=ref") && strings.Contains(line, `test="Packet Out"`) {
			cachedLine = true
		}
	}
	if !cachedLine {
		t.Errorf("warm run logged no cell-cached line with agent/test attributes:\n%s", logBuf.String())
	}
	if warm.CacheHits != 4 || warm.CacheMisses != 0 {
		t.Fatalf("warm run: hits=%d misses=%d, want 4/0", warm.CacheHits, warm.CacheMisses)
	}
	if warm.GroupCacheHits != 4 {
		t.Fatalf("warm run: group cache hits=%d, want 4", warm.GroupCacheHits)
	}
	if warm.SolverStats.Queries != cold.Checks[0].Report.SolverStats.Queries+cold.Checks[1].Report.SolverStats.Queries {
		t.Errorf("warm run did exploration solver work: %+v", warm.SolverStats)
	}
	if !bytes.Equal(reportBytes(t, cold), reportBytes(t, warm)) {
		t.Fatal("warm campaign report differs from cold run")
	}

	// Invalidation: each change must re-explore every cell.
	for name, opts := range map[string]Options{
		"code version": {Models: true, CrossCheck: true, Store: st, CodeVersion: "v2"},
		"max paths":    {Models: true, CrossCheck: true, Store: st, CodeVersion: "v1", MaxPaths: 7},
		"models off":   {CrossCheck: true, Store: st, CodeVersion: "v1"},
	} {
		rep, err := RunMatrix(context.Background(), testAgents, testTests, opts)
		if err != nil {
			t.Fatalf("%s run: %v", name, err)
		}
		if rep.CacheHits != 0 || rep.CacheMisses != 4 {
			t.Errorf("changing %s: hits=%d misses=%d, want 0/4", name, rep.CacheHits, rep.CacheMisses)
		}
	}

	// And each variant is itself cached now: the same variant re-run hits.
	rep, err := RunMatrix(context.Background(), testAgents, testTests,
		Options{Models: true, CrossCheck: true, Store: st, CodeVersion: "v2"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CacheHits != 4 {
		t.Errorf("re-run of code-version variant missed: hits=%d", rep.CacheHits)
	}
}

// TestMatrixTruncatedDeterminism: a MaxPaths-capped campaign still
// produces identical reports across layouts (the canonical cut at work).
func TestMatrixTruncatedDeterminism(t *testing.T) {
	opts := Options{Models: true, CrossCheck: true, MaxPaths: 5}
	a, err := RunMatrix(context.Background(), testAgents, testTests[:1], opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Cells {
		if !a.Cells[i].Result.Truncated {
			t.Fatalf("cell %d not truncated at MaxPaths=5", i)
		}
	}
	opts.Workers = 4
	b, err := RunMatrix(context.Background(), testAgents, testTests[:1], opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportBytes(t, a), reportBytes(t, b)) {
		t.Fatal("truncated campaign differs across worker counts")
	}
}

// TestMatrixValidation pins the argument errors.
func TestMatrixValidation(t *testing.T) {
	ctx := context.Background()
	cases := [][2][]string{
		{{}, {"Packet Out"}},
		{{"ref"}, {}},
		{{"no-such-agent"}, {"Packet Out"}},
		{{"ref"}, {"No Such Test"}},
		{{"ref", "ref"}, {"Packet Out"}},
		{{"ref"}, {"Packet Out", "Packet Out"}},
	}
	for _, c := range cases {
		if _, err := RunMatrix(ctx, c[0], c[1], Options{}); err == nil {
			t.Errorf("RunMatrix(%v, %v) accepted", c[0], c[1])
		}
	}
}

// TestMatrixCancellation: cancelling the campaign context aborts promptly
// with the context error.
func TestMatrixCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunMatrix(ctx, testAgents, testTests, Options{CrossCheck: true}); err == nil {
		t.Fatal("cancelled campaign returned a report")
	}
}
