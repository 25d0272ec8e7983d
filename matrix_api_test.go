package soft_test

import (
	"bytes"
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/soft-testing/soft"
)

func matrixReportBytes(t *testing.T, rep *soft.MatrixReport) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatalf("MatrixReport.Write: %v", err)
	}
	return buf.Bytes()
}

// acceptedListener accepts n connections on ln — the workers' dials —
// and returns a listener that hands those out first and then accepts on
// ln. A campaign started on it begins with every worker connected: when
// one worker drains a small campaign and the fleet closes the listener, a
// worker that had not dialed yet would be refused.
func acceptedListener(t *testing.T, ln net.Listener, n int) net.Listener {
	t.Helper()
	tl := ln.(*net.TCPListener)
	if err := tl.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		t.Fatal(err)
	}
	conns := make(chan net.Conn, n)
	for i := 0; i < n; i++ {
		c, err := tl.Accept()
		if err != nil {
			t.Fatalf("accepting worker %d: %v", i, err)
		}
		conns <- c
	}
	if err := tl.SetDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
	return &preAccepted{Listener: ln, conns: conns}
}

type preAccepted struct {
	net.Listener
	conns chan net.Conn
}

func (l *preAccepted) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	default:
		return l.Listener.Accept()
	}
}

// TestRunMatrixAPI drives a campaign through the public API: fleetless
// first, then the same campaign over a worker fleet plus a warm store
// re-run, asserting canonical-report byte-identity throughout.
func TestRunMatrixAPI(t *testing.T) {
	ctx := context.Background()
	agents := []string{"ref", "modified"}
	tests := []string{"Packet Out"}

	local, err := soft.RunMatrix(ctx, agents, tests, soft.WithModels(true))
	if err != nil {
		t.Fatalf("RunMatrix: %v", err)
	}
	want := matrixReportBytes(t, local)
	if len(local.Cells) != 2 || len(local.Checks) != 1 {
		t.Fatalf("cells=%d checks=%d, want 2/1", len(local.Cells), len(local.Checks))
	}
	if local.Inconsistencies() == 0 {
		t.Fatal("ref vs modified on Packet Out found no inconsistencies")
	}

	// Fleet + store: two soft.Work goroutines drain the matrix.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	storeDir := t.TempDir()
	workerCtx, stopWorkers := context.WithCancel(ctx)
	defer stopWorkers()
	workerDone := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			workerDone <- soft.Work(workerCtx, ln.Addr().String(), soft.WithWorkers(2))
		}()
	}
	var evMu sync.Mutex
	var events []soft.Event
	fleet, err := soft.RunMatrix(ctx, agents, tests,
		soft.WithModels(true),
		soft.WithFleetListener(acceptedListener(t, ln, 2)),
		soft.WithStore(storeDir),
		soft.WithCodeVersion("test-v1"),
		soft.WithProgress(func(ev soft.Event) {
			if ev.Phase == soft.PhaseMatrix {
				evMu.Lock()
				events = append(events, ev)
				evMu.Unlock()
			}
		}),
	)
	if err != nil {
		t.Fatalf("fleet RunMatrix: %v", err)
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-workerDone:
			if err != nil && err != context.Canceled {
				t.Errorf("worker: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("worker did not exit after the campaign")
		}
	}
	if got := matrixReportBytes(t, fleet); !bytes.Equal(got, want) {
		t.Fatal("fleet campaign report differs from fleetless run")
	}
	if fleet.FleetStats == nil || fleet.FleetStats.JobsCompleted != 2 {
		t.Errorf("fleet stats: %+v", fleet.FleetStats)
	}
	maxDone := 0
	for _, ev := range events {
		if ev.Done > maxDone {
			maxDone = ev.Done
		}
	}
	// 2 cells + 1 check = 3 work units; counts may arrive out of order.
	if len(events) == 0 || maxDone != 3 {
		t.Errorf("matrix progress events missing or unfinished (max %d): %+v", maxDone, events)
	}

	// Warm re-run (no fleet needed — every cell cached).
	warm, err := soft.RunMatrix(ctx, agents, tests,
		soft.WithModels(true), soft.WithStore(storeDir), soft.WithCodeVersion("test-v1"))
	if err != nil {
		t.Fatalf("warm RunMatrix: %v", err)
	}
	if warm.CacheHits != 2 || warm.CacheMisses != 0 {
		t.Fatalf("warm run hits=%d misses=%d, want 2/0", warm.CacheHits, warm.CacheMisses)
	}
	if got := matrixReportBytes(t, warm); !bytes.Equal(got, want) {
		t.Fatal("warm campaign report differs")
	}

	// A different code version re-explores.
	bumped, err := soft.RunMatrix(ctx, agents, tests,
		soft.WithModels(true), soft.WithStore(storeDir), soft.WithCodeVersion("test-v2"))
	if err != nil {
		t.Fatal(err)
	}
	if bumped.CacheHits != 0 {
		t.Fatalf("code-version bump still hit the cache: %d", bumped.CacheHits)
	}
}

// TestRunMatrixDefaults: empty agent/test slices expand to the full
// registry and suite.
func TestRunMatrixDefaults(t *testing.T) {
	rep, err := soft.RunMatrix(context.Background(), nil, []string{"Stats Request"},
		soft.WithCrossCheck(false))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Agents) != len(soft.Agents()) {
		t.Fatalf("agents = %v, want all of %v", rep.Agents, soft.Agents())
	}
	if len(rep.Checks) != 0 {
		t.Fatalf("WithCrossCheck(false) still produced %d checks", len(rep.Checks))
	}
}
