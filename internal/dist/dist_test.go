package dist

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"github.com/soft-testing/soft/internal/agents/refswitch"
	"github.com/soft-testing/soft/internal/harness"
)

// serializeCanonical renders a merged result with the wall-clock line
// zeroed so runs compare byte for byte.
func serializeCanonical(t *testing.T, r *harness.MergedResult) []byte {
	t.Helper()
	clone := *r.SerializedResult
	clone.Elapsed = 0
	var buf bytes.Buffer
	if err := clone.Write(&buf); err != nil {
		t.Fatalf("serialize: %v", err)
	}
	return buf.Bytes()
}

// singleProcessBytes is the reference: a plain in-process exploration,
// serialized with Elapsed zeroed.
func singleProcessBytes(t *testing.T, o harness.Options) []byte {
	t.Helper()
	tt, ok := harness.TestByName("Packet Out")
	if !ok {
		t.Fatal("missing test Packet Out")
	}
	r := harness.Explore(refswitch.New(), tt, o)
	clone := *r
	clone.Elapsed = 0
	var buf bytes.Buffer
	if err := clone.Write(&buf); err != nil {
		t.Fatalf("serialize: %v", err)
	}
	return buf.Bytes()
}

// serveAsync runs one job on a fresh localhost fleet and shuts the fleet
// down when the job ends. It returns the fleet's address plus a channel
// carrying the merged result.
type serveOutcome struct {
	res *harness.MergedResult
	err error
}

func serveAsync(t *testing.T, ctx context.Context, fc FleetConfig, jc JobConfig) (string, <-chan serveOutcome) {
	t.Helper()
	if jc.AgentName == "" {
		jc.AgentName = "ref"
	}
	if jc.TestName == "" {
		jc.TestName = "Packet Out"
	}
	f, addr := newTestFleet(t, fc)
	out := make(chan serveOutcome, 1)
	go func() {
		res, err := f.Run(ctx, jc)
		f.Close()
		out <- serveOutcome{res, err}
	}()
	return addr, out
}

func waitServe(t *testing.T, out <-chan serveOutcome) *harness.MergedResult {
	t.Helper()
	select {
	case o := <-out:
		if o.err != nil {
			t.Fatalf("Run: %v", o.err)
		}
		return o.res
	case <-time.After(2 * time.Minute):
		t.Fatal("job did not complete")
		return nil
	}
}

// startWorker runs one Work loop; the returned channel carries its exit
// error. Tests drain the channels before returning so no goroutine
// outlives the test.
func startWorker(ctx context.Context, addr string, engineWorkers int) <-chan error {
	ch := make(chan error, 1)
	go func() { ch <- Work(ctx, addr, WorkerConfig{Workers: engineWorkers}) }()
	return ch
}

func waitWorkers(t *testing.T, chans ...<-chan error) {
	t.Helper()
	for i, ch := range chans {
		select {
		case err := <-ch:
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		case <-time.After(30 * time.Second):
			t.Errorf("worker %d did not exit", i)
		}
	}
}

// TestDistributedExploreDeterminism is the tentpole acceptance property: a
// coordinator plus two workers over localhost TCP must produce byte-identical
// serialized results to a single-process parallel run.
func TestDistributedExploreDeterminism(t *testing.T) {
	want := singleProcessBytes(t, harness.Options{WantModels: true, Workers: 4})

	ctx := context.Background()
	addr, out := serveAsync(t, ctx, FleetConfig{}, JobConfig{WantModels: true})
	w1 := startWorker(ctx, addr, 2)
	w2 := startWorker(ctx, addr, 2)
	res := waitServe(t, out)
	waitWorkers(t, w1, w2)
	if got := serializeCanonical(t, res); !bytes.Equal(got, want) {
		t.Fatalf("distributed results differ from single-process (%d vs reference bytes %d)",
			len(got), len(want))
	}
	if res.Truncated {
		t.Fatal("exhaustive distributed run marked truncated")
	}
	// Exploration's solver work happens on per-worker SAT sessions, counted
	// by BranchQueries; a zero aggregate would mean shard counters were
	// dropped in the merge.
	if res.BranchQueries == 0 {
		t.Fatal("aggregated branch-query count is zero — shard counters were not merged")
	}
}

// flakyWorker handshakes, takes one lease, and drops the connection — a
// worker crash in miniature. Returns once the connection is closed.
func flakyWorker(t *testing.T, addr string) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("flaky worker dial: %v", err)
	}
	defer conn.Close()
	if err := writeFrame(conn, msgHello, encodeHello(hello{version: protocolVersion, name: "flaky"})); err != nil {
		t.Fatalf("flaky worker hello: %v", err)
	}
	if mt, _, err := readFrame(conn); err != nil || mt != msgWelcome {
		t.Fatalf("flaky worker welcome: type %d err %v", mt, err)
	}
	if mt, _, err := readFrame(conn); err != nil || mt != msgJob {
		t.Fatalf("flaky worker job: type %d err %v", mt, err)
	}
	if mt, _, err := readFrame(conn); err != nil || mt != msgLease {
		t.Fatalf("flaky worker lease: type %d err %v", mt, err)
	}
	// Crash: the shards this lease covered must be re-leased, not lost.
}

// TestDistributedWorkerCrashReLease kills a worker after it accepted a
// lease; the coordinator must re-lease the shard and the final result must
// still be byte-identical to the single-process run.
func TestDistributedWorkerCrashReLease(t *testing.T) {
	want := singleProcessBytes(t, harness.Options{WantModels: true, Workers: 4})

	ctx := context.Background()
	addr, out := serveAsync(t, ctx, FleetConfig{}, JobConfig{WantModels: true})
	flakyWorker(t, addr) // connects, leases, disconnects
	w := startWorker(ctx, addr, 2)
	res := waitServe(t, out)
	waitWorkers(t, w)
	if got := serializeCanonical(t, res); !bytes.Equal(got, want) {
		t.Fatal("results differ after worker crash + re-lease")
	}
}

// TestDistributedLeaseTimeout hangs a worker on a lease (connected but
// silent); the lease must expire and move to a live worker, and a stale
// result from the hung worker later must be ignored.
func TestDistributedLeaseTimeout(t *testing.T) {
	want := singleProcessBytes(t, harness.Options{WantModels: true, Workers: 4})

	ctx := context.Background()
	addr, out := serveAsync(t, ctx, FleetConfig{LeaseTimeout: 300 * time.Millisecond}, JobConfig{WantModels: true})

	// Hung worker: takes a lease and never answers.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if err := writeFrame(conn, msgHello, encodeHello(hello{version: protocolVersion, name: "hung"})); err != nil {
		t.Fatalf("hello: %v", err)
	}
	if mt, _, err := readFrame(conn); err != nil || mt != msgWelcome {
		t.Fatalf("welcome: type %d err %v", mt, err)
	}
	if mt, _, err := readFrame(conn); err != nil || mt != msgJob {
		t.Fatalf("job: type %d err %v", mt, err)
	}
	if mt, _, err := readFrame(conn); err != nil || mt != msgLease {
		t.Fatalf("lease: type %d err %v", mt, err)
	}

	w := startWorker(ctx, addr, 2)
	res := waitServe(t, out)
	waitWorkers(t, w)
	if got := serializeCanonical(t, res); !bytes.Equal(got, want) {
		t.Fatal("results differ after lease timeout + re-lease")
	}
}

// TestDistributedCanonicalTruncation pins the satellite property: MaxPaths
// truncation is canonical by default in distributed runs, so a truncated
// distributed result is byte-identical to canonically truncated
// single-process runs at any worker count.
func TestDistributedCanonicalTruncation(t *testing.T) {
	const cap = 7
	want1 := singleProcessBytes(t, harness.Options{WantModels: true, Workers: 1, MaxPaths: cap, CanonicalCut: true})
	want4 := singleProcessBytes(t, harness.Options{WantModels: true, Workers: 4, MaxPaths: cap, CanonicalCut: true})
	if !bytes.Equal(want1, want4) {
		t.Fatal("canonical truncation differs between single-process worker counts")
	}

	ctx := context.Background()
	addr, out := serveAsync(t, ctx, FleetConfig{}, JobConfig{WantModels: true, MaxPaths: cap})
	w1 := startWorker(ctx, addr, 2)
	w2 := startWorker(ctx, addr, 2)
	res := waitServe(t, out)
	waitWorkers(t, w1, w2)
	if !res.Truncated {
		t.Fatal("truncated distributed run not marked truncated")
	}
	if len(res.Paths) != cap {
		t.Fatalf("kept %d paths, want %d", len(res.Paths), cap)
	}
	if got := serializeCanonical(t, res); !bytes.Equal(got, want1) {
		t.Fatal("truncated distributed result differs from canonical single-process truncation")
	}
}

// TestDistributedCancellation: cancelling the job's context aborts the run
// with the context error rather than hanging or emitting a result.
func TestDistributedCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	_, out := serveAsync(t, ctx, FleetConfig{}, JobConfig{WantModels: true})
	cancel() // no workers ever connect; pending shards can never finish
	select {
	case o := <-out:
		if o.err == nil {
			t.Fatal("cancelled job returned a result")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled job did not return")
	}
}
