package dist

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/soft-testing/soft/internal/agents/modified"
	"github.com/soft-testing/soft/internal/agents/refswitch"
	"github.com/soft-testing/soft/internal/harness"
	"github.com/soft-testing/soft/internal/obs"
)

// newTestFleet stands up a fleet on a fresh localhost listener.
func newTestFleet(t *testing.T, cfg FleetConfig) (*Fleet, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = 200 * time.Millisecond
	}
	f := NewFleet(ln, cfg)
	t.Cleanup(f.Close)
	return f, ln.Addr().String()
}

// agentBytes is the single-process reference for an arbitrary agent.
func agentBytes(t *testing.T, agentName string, o harness.Options) []byte {
	t.Helper()
	tt, ok := harness.TestByName("Packet Out")
	if !ok {
		t.Fatal("missing test Packet Out")
	}
	var a harness.Result
	switch agentName {
	case "ref":
		a = *harness.Explore(refswitch.New(), tt, o)
	case "modified":
		a = *harness.Explore(modified.New(), tt, o)
	default:
		t.Fatalf("unknown test agent %q", agentName)
	}
	a.Elapsed = 0
	var buf bytes.Buffer
	if err := a.Write(&buf); err != nil {
		t.Fatalf("serialize: %v", err)
	}
	return buf.Bytes()
}

// TestFleetMultiJob runs two jobs — different agents, same fleet, same two
// workers, concurrently — and asserts each merged result is byte-identical
// to its single-process reference. This is the campaign scheduler's core
// transport property: one persistent fleet drains many (agent, test) cells
// without reconnecting.
func TestFleetMultiJob(t *testing.T) {
	wantRef := agentBytes(t, "ref", harness.Options{WantModels: true, Workers: 4})
	wantMod := agentBytes(t, "modified", harness.Options{WantModels: true, Workers: 4})

	f, addr := newTestFleet(t, FleetConfig{})
	ctx := context.Background()
	ws := startJoinedWorkers(t, f, addr, 2)

	type outcome struct {
		res *harness.Result
		err error
	}
	runJob := func(agent string) <-chan outcome {
		ch := make(chan outcome, 1)
		go func() {
			res, err := f.Run(ctx, JobConfig{AgentName: agent, TestName: "Packet Out", WantModels: true})
			ch <- outcome{res, err}
		}()
		return ch
	}
	refCh := runJob("ref")
	modCh := runJob("modified")
	check := func(name string, ch <-chan outcome, want []byte) {
		select {
		case o := <-ch:
			if o.err != nil {
				t.Fatalf("job %s: %v", name, o.err)
			}
			if got := serializeCanonical(t, o.res); !bytes.Equal(got, want) {
				t.Fatalf("job %s differs from single-process reference", name)
			}
		case <-time.After(2 * time.Minute):
			t.Fatalf("job %s did not complete", name)
		}
	}
	check("ref", refCh, wantRef)
	check("modified", modCh, wantMod)

	f.Close()
	waitWorkers(t, ws...)

	st := f.Stats()
	if st.JobsCompleted != 2 {
		t.Errorf("JobsCompleted = %d, want 2", st.JobsCompleted)
	}
	if st.WorkersJoined != 2 {
		t.Errorf("WorkersJoined = %d, want 2", st.WorkersJoined)
	}
}

// TestFleetDeepSplit drives a deep split (many small shards) through a
// single worker: every lease carries exactly one shard, and the merged
// result is byte-identical to the single-process reference.
func TestFleetDeepSplit(t *testing.T) {
	want := agentBytes(t, "ref", harness.Options{WantModels: true, Workers: 4})

	f, addr := newTestFleet(t, FleetConfig{})
	ctx := context.Background()
	w := startWorker(ctx, addr, 2)
	res, err := f.Run(ctx, JobConfig{
		AgentName: "ref", TestName: "Packet Out", WantModels: true, ShardDepth: 6,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := serializeCanonical(t, res); !bytes.Equal(got, want) {
		t.Fatal("deep-split result differs from single-process reference")
	}
	f.Close()
	waitWorkers(t, w)
	st := f.Stats()
	if st.Leases < 2 || st.Leases != st.ShardsLeased {
		t.Errorf("%d leases carried %d shards, want one shard per lease over several leases", st.Leases, st.ShardsLeased)
	}
	if st.BatchedLeases != 0 {
		t.Errorf("BatchedLeases = %d, want 0", st.BatchedLeases)
	}
}

// TestFleetZeroShards: a split depth beyond the tree's deepest fork
// yields no shards at all — the coordinator explored everything locally —
// and the job must complete immediately, workerless, with the same bytes.
func TestFleetZeroShards(t *testing.T) {
	want := agentBytes(t, "ref", harness.Options{WantModels: true, Workers: 4})
	f, _ := newTestFleet(t, FleetConfig{})
	done := make(chan struct{})
	var res *harness.Result
	var err error
	go func() {
		defer close(done)
		res, err = f.Run(context.Background(), JobConfig{
			AgentName: "ref", TestName: "Packet Out", WantModels: true, ShardDepth: 512,
		})
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("zero-shard job never completed")
	}
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := serializeCanonical(t, res); !bytes.Equal(got, want) {
		t.Fatal("zero-shard result differs from single-process reference")
	}
}

// TestCompleteRemovesExpiredShardFromQueue pins the expiry/late-result
// race: a shard whose lease expired (back in the pending queue) whose
// original worker then finishes must be accepted AND pulled from the
// queue, never re-leased as a phantom.
func TestCompleteRemovesExpiredShardFromQueue(t *testing.T) {
	f := &Fleet{conns: make(map[net.Conn]bool), log: obs.NopLogger()}
	f.cond = sync.NewCond(&f.mu)
	j := &jobRun{}
	s := j.addShard([]bool{true, false})
	// Lease 1 was granted, then expired: the watch loop re-queued the shard.
	s.lease = 1
	s.status = shardPending
	// The original worker's result now arrives.
	f.completeShard(s, 1, &harness.Shard{Result: &harness.Result{}})
	if s.status != shardDone {
		t.Fatalf("shard status %d, want done", s.status)
	}
	if len(j.pending) != 0 {
		t.Fatalf("done shard still in the pending queue (%d entries)", len(j.pending))
	}
	if !j.completed {
		t.Fatal("single-shard job not completed after its result")
	}
}

// TestWorkerVersionReject covers both halves of the version-mismatch
// handshake: the coordinator rejects a wrong-version hello with a reject
// frame, and Work surfaces a coordinator's reject as ErrVersionMismatch.
func TestWorkerVersionReject(t *testing.T) {
	// Half 1: fleet rejects an old worker with a reject frame.
	f, addr := newTestFleet(t, FleetConfig{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if err := writeFrame(conn, msgHello, encodeHello(hello{version: protocolVersion + 7, name: "old"})); err != nil {
		t.Fatalf("hello: %v", err)
	}
	mt, payload, err := readFrame(conn)
	if err != nil || mt != msgReject {
		t.Fatalf("want reject frame, got type %d err %v", mt, err)
	}
	r, err := decodeReject(payload)
	if err != nil || r.want != protocolVersion {
		t.Fatalf("reject payload %+v err %v, want version %d", r, err, protocolVersion)
	}
	if st := f.Stats(); st.WorkersRejected != 1 {
		t.Errorf("WorkersRejected = %d, want 1", st.WorkersRejected)
	}

	// Half 2: a worker dialing a newer coordinator reports the mismatch.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		readFrame(c) // the hello
		writeFrame(c, msgReject, encodeReject(reject{want: 99}))
	}()
	err = Work(context.Background(), ln.Addr().String(), WorkerConfig{Name: "w"})
	if !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("Work error = %v, want ErrVersionMismatch", err)
	}
}

// TestWorkerSegmentsNestUnderLeaseSpans drives worker-shipped span
// segments through the wire encoding and the coordinator-side merge, and
// asserts the invariants the merged timeline depends on: a worker name
// maps to one stable pid for the fleet's lifetime, each worker's spans
// land under that pid on the lease span's lane, and each parentless
// worker span nests under exactly the coordinator lease span that granted
// the work.
func TestWorkerSegmentsNestUnderLeaseSpans(t *testing.T) {
	tr := obs.StartTracing()
	defer tr.Stop()
	f, _ := newTestFleet(t, FleetConfig{})

	pidA := f.pidFor("worker/a")
	pidB := f.pidFor("worker/b")
	if pidA == pidB {
		t.Fatalf("distinct workers share pid %d", pidA)
	}
	if got := f.pidFor("worker/a"); got != pidA {
		t.Fatalf("pid for worker/a drifted: %d then %d", pidA, got)
	}
	if pidA <= obs.LocalPid || pidB <= obs.LocalPid {
		t.Fatalf("worker pids %d/%d collide with the coordinator's %d", pidA, pidB, obs.LocalPid)
	}

	// Coordinator-side lease spans, one lane per worker pid — as handle()
	// opens them when granting a traced lease.
	leaseA := obs.StartSpan("lease:1 -> worker/a").WithTID(int(pidA))
	leaseB := obs.StartSpan("lease:2 -> worker/b").WithTID(int(pidB))

	// Worker-side segments as Work ships them: stamped with the worker
	// name and the granting lease's span id, sent over the real encoding.
	ship := func(leaseID uint64, parent uint64, proc string, pid int64, span string) {
		t.Helper()
		m, err := decodeTrace(encodeTrace(traceMsg{job: 1, lease: leaseID, seg: obs.Segment{
			Process:       proc,
			BaseUnixMicro: time.Now().UnixMicro(),
			Parent:        parent,
			Events:        []obs.SegmentEvent{{Name: span, TS: 1, Dur: 2, ID: 1000 + uint64(pid)}},
		}}))
		if err != nil {
			t.Fatalf("trace frame round trip: %v", err)
		}
		tr.MergeSegment(m.seg, pid)
	}
	ship(1, leaseA.ID(), "worker/a", pidA, "shard:00")
	ship(2, leaseB.ID(), "worker/b", pidB, "shard:01")
	leaseA.End()
	leaseB.End()

	segs := tr.Drain()
	byPid := make(map[int64]obs.Segment, len(segs))
	for _, seg := range segs {
		byPid[seg.Pid] = seg
	}
	local, ok := byPid[obs.LocalPid]
	if !ok || len(local.Events) != 2 {
		t.Fatalf("coordinator segment missing or wrong size: %+v", segs)
	}
	leaseSpanByTID := make(map[int64]uint64)
	for _, ev := range local.Events {
		leaseSpanByTID[ev.TID] = ev.ID
	}
	if leaseSpanByTID[pidA] != leaseA.ID() || leaseSpanByTID[pidB] != leaseB.ID() {
		t.Fatalf("lease spans not on their workers' lanes: %+v", local.Events)
	}
	for pid, wantParent := range map[int64]uint64{pidA: leaseA.ID(), pidB: leaseB.ID()} {
		seg, ok := byPid[pid]
		if !ok || len(seg.Events) != 1 {
			t.Fatalf("worker pid %d segment missing: %+v", pid, segs)
		}
		if seg.Events[0].Parent != wantParent {
			t.Fatalf("worker pid %d span nests under %d, want lease span %d",
				pid, seg.Events[0].Parent, wantParent)
		}
	}
	if byPid[pidA].Process != "worker/a" || byPid[pidB].Process != "worker/b" {
		t.Fatalf("worker track names lost: %+v", segs)
	}
}
