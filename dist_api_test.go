package soft_test

import (
	"bytes"
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/soft-testing/soft"
)

// TestServeMatchesExplore drives the public distributed API end to end: a
// ServeListener coordinator plus two Work processes (in-process goroutines
// over real localhost TCP) must reproduce soft.Explore byte for byte, and
// the final progress event must carry the aggregated solver statistics.
func TestServeMatchesExplore(t *testing.T) {
	ctx := context.Background()
	agent, err := soft.AgentByName("ref")
	if err != nil {
		t.Fatal(err)
	}
	test, ok := soft.TestByName("Packet Out")
	if !ok {
		t.Fatal("missing test Packet Out")
	}
	ref, err := soft.Explore(ctx, agent, test, soft.WithModels(true), soft.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	ref.Elapsed = 0
	var want bytes.Buffer
	if err := soft.WriteResults(&want, ref); err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var lastStats atomic.Pointer[soft.SolverStats]
	var lastDone atomic.Int64
	type outcome struct {
		res *soft.DistResult
		err error
	}
	serveDone := make(chan outcome, 1)
	go func() {
		res, err := soft.ServeListener(ctx, ln, "ref", "Packet Out",
			soft.WithModels(true),
			soft.WithProgress(func(ev soft.Event) {
				if ev.Stats != nil {
					lastStats.Store(ev.Stats)
				}
				if int64(ev.Done) > lastDone.Load() {
					lastDone.Store(int64(ev.Done))
				}
			}))
		serveDone <- outcome{res, err}
	}()
	workDone := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			workDone <- soft.Work(ctx, ln.Addr().String(), soft.WithWorkers(2))
		}()
	}

	var res *soft.DistResult
	select {
	case o := <-serveDone:
		if o.err != nil {
			t.Fatalf("Serve: %v", o.err)
		}
		res = o.res
	case <-time.After(2 * time.Minute):
		t.Fatal("Serve did not complete")
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-workDone:
			if err != nil {
				t.Errorf("Work: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("Work did not exit")
		}
	}

	res.Elapsed = 0
	var got bytes.Buffer
	if err := res.SerializedResult.Write(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("distributed result differs from soft.Explore (%d vs %d bytes)",
			got.Len(), want.Len())
	}
	if int(lastDone.Load()) != len(ref.Paths) {
		t.Fatalf("final progress reported %d paths, want %d", lastDone.Load(), len(ref.Paths))
	}
	st := lastStats.Load()
	if st == nil {
		t.Fatal("no final progress event carried solver statistics")
	}
	if st.AssumptionSolves != res.SolverStats.AssumptionSolves || st.Queries != res.SolverStats.Queries {
		t.Fatalf("final event stats %+v differ from merged result stats %+v", *st, res.SolverStats)
	}
}
