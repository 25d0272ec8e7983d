package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestDistE2E is the multi-process acceptance test: it builds the real soft
// binary, runs a traced one-cell `soft matrix -addr` fleet coordinator and
// two worker processes over localhost TCP, SIGKILLs the first worker after
// it completes a shard, and asserts (1) the cell's results file is
// byte-identical to a single-process `soft explore -workers 4` run
// (wall-clock line normalized) — tracing and structured logging included,
// observation never touches the answer path — and (2) the merged Chrome
// trace is one timeline spanning all three processes, with the killed
// worker's shipped-so-far segments present and every worker shard span
// nested under a coordinator lease span.
func TestDistE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e skipped in -short mode")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH; cannot build the soft binary")
	}

	dir := t.TempDir()
	bin := filepath.Join(dir, "soft")
	build := exec.Command(goTool, "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	const agent, test = "ref", "Packet Out"

	// Reference: single-process parallel exploration through the same
	// binary.
	refFile := filepath.Join(dir, "ref.results")
	explore := exec.Command(bin, "explore", "-agent", agent, "-test", test, "-workers", "4", "-o", refFile)
	if out, err := explore.CombinedOutput(); err != nil {
		t.Fatalf("soft explore: %v\n%s", err, out)
	}

	// Coordinator on an ephemeral port; -progress exposes the address and
	// structured lease/shard lifecycle lines on stderr; -trace collects the
	// merged cross-process timeline; -results-dir writes the cell's file.
	distDir := filepath.Join(dir, "dist")
	distFile := filepath.Join(distDir, cellFileName(agent, test))
	traceFilePath := filepath.Join(dir, "trace.json")
	coord := exec.Command(bin, "matrix",
		"-addr", "127.0.0.1:0", "-agents", agent, "-tests", test, "-crosscheck=false",
		"-shard-depth", "4", "-lease-timeout", "5s", "-progress", "-v",
		"-trace", traceFilePath,
		"-timeout", "2m", "-results-dir", distDir)
	coord.Stdout = io.Discard
	coordErr, err := coord.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start(); err != nil {
		t.Fatalf("start soft matrix: %v", err)
	}
	defer coord.Process.Kill()

	addrCh := make(chan string, 1)
	shardDoneCh := make(chan string, 64)
	coordLog := &lockedBuf{}
	// Wait closes the pipe once the process exits, so the log is read to
	// EOF before Wait is called; otherwise its last lines can be lost.
	logDone := make(chan struct{})
	go func() {
		defer close(logDone)
		sc := bufio.NewScanner(coordErr)
		for sc.Scan() {
			line := sc.Text()
			coordLog.add(line)
			if a, ok := strings.CutPrefix(line, "soft matrix: listening on "); ok {
				addrCh <- a
			}
			// Structured fleet lines render through the text slog handler.
			if strings.Contains(line, `msg="shard done"`) {
				select {
				case shardDoneCh <- line:
				default:
				}
			}
		}
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(30 * time.Second):
		t.Fatalf("coordinator never announced its address\n%s", coordLog)
	}

	// Worker A: started alone so it necessarily receives the first leases;
	// killed (SIGKILL, no goodbye) as soon as it has banked one shard — at
	// that point it has also shipped that shard's trace segment, which must
	// survive into the merged timeline. The coordinator must re-lease
	// whatever A still held.
	workerA := exec.Command(bin, "work", "-addr", addr, "-name", "workerA", "-workers", "2")
	workerA.Stderr = io.Discard
	if err := workerA.Start(); err != nil {
		t.Fatalf("start worker A: %v", err)
	}
	select {
	case line := <-shardDoneCh:
		t.Logf("killing worker A after %q", line)
	case <-time.After(60 * time.Second):
		workerA.Process.Kill()
		t.Fatalf("worker A never completed a shard\n%s", coordLog)
	}
	workerA.Process.Kill()
	workerA.Wait()

	// Worker B finishes the run, including anything re-leased from A.
	workerB := exec.Command(bin, "work", "-addr", addr, "-name", "workerB", "-workers", "2")
	workerB.Stderr = io.Discard
	if err := workerB.Start(); err != nil {
		t.Fatalf("start worker B: %v", err)
	}
	defer func() {
		workerB.Process.Kill()
		workerB.Wait()
	}()

	<-logDone
	if err := coord.Wait(); err != nil {
		t.Fatalf("soft matrix failed: %v\n%s", err, coordLog)
	}

	want, err := os.ReadFile(refFile)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(distFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(normalizeElapsed(t, got), normalizeElapsed(t, want)) {
		t.Fatalf("distributed output differs from single-process explore\n--- coordinator log ---\n%s", coordLog)
	}

	// -v must surface solver statistics aggregated across the workers,
	// whose shards ran on incremental sessions.
	log := coordLog.String()
	if !strings.Contains(log, "solver:") || !strings.Contains(log, "branch feasibility queries") ||
		!strings.Contains(log, "sessions:") {
		t.Errorf("matrix -v did not report aggregated solver statistics:\n%s", log)
	}
	if !strings.Contains(log, "re-queued") {
		t.Logf("note: worker A finished its leases before the kill landed (re-lease path covered by internal/dist tests)")
	}
	// Structured fleet lines carry the ids that make them greppable.
	for _, want := range []string{`msg="lease granted"`, "worker=workerA", "worker=workerB", "job=", "lease="} {
		if !strings.Contains(log, want) {
			t.Errorf("coordinator log misses %q:\n%s", want, log)
		}
	}

	assertMergedDistTrace(t, traceFilePath)
}

// assertMergedDistTrace checks the coordinator's -trace output is one
// coherent multi-process timeline: spans from the coordinator and both
// workers (the SIGKILLed one included — its shipped segments survive),
// worker tracks named via process_name metadata, and every worker shard
// span nested under a recorded coordinator lease span.
func assertMergedDistTrace(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read trace: %v", err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  int64  `json:"pid"`
			Args struct {
				Name   string `json:"name"`
				Span   uint64 `json:"span"`
				Parent uint64 `json:"parent"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}

	procNames := map[string]bool{}   // "M" metadata: pid track names
	spanPids := map[int64]bool{}     // pids owning at least one "X" span
	leaseSpans := map[uint64]bool{}  // coordinator lease span ids
	shardParents := map[uint64]int{} // worker shard spans by parent id
	var coordSpans, shardSpans int
	for _, ev := range tf.TraceEvents {
		switch ev.Ph {
		case "M":
			procNames[ev.Args.Name] = true
		case "X":
			spanPids[ev.Pid] = true
			if ev.Pid == 1 {
				coordSpans++
				if strings.HasPrefix(ev.Name, "lease:") {
					leaseSpans[ev.Args.Span] = true
				}
			}
			if strings.HasPrefix(ev.Name, "shard:") && ev.Pid != 1 {
				shardSpans++
				shardParents[ev.Args.Parent]++
			}
		default:
			t.Errorf("unexpected phase %q on %q", ev.Ph, ev.Name)
		}
	}
	if len(spanPids) < 3 {
		t.Fatalf("merged trace spans %d processes, want >= 3 (coordinator + both workers):\n%s", len(spanPids), data)
	}
	if !procNames["workerA"] || !procNames["workerB"] {
		t.Errorf("worker tracks not named: got %v, want workerA and workerB", procNames)
	}
	if coordSpans == 0 || len(leaseSpans) == 0 {
		t.Errorf("no coordinator lease spans recorded (coord spans: %d)", coordSpans)
	}
	if shardSpans == 0 {
		t.Error("no worker shard spans in merged trace")
	}
	for parent, n := range shardParents {
		if parent == 0 {
			t.Errorf("%d worker shard spans have no parent", n)
		} else if !leaseSpans[parent] {
			t.Errorf("%d worker shard spans nest under unknown span %d", n, parent)
		}
	}
}

// lockedBuf collects subprocess log lines for failure messages.
type lockedBuf struct {
	mu    sync.Mutex
	lines []string
}

func (b *lockedBuf) add(s string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lines = append(b.lines, s)
}

func (b *lockedBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return strings.Join(b.lines, "\n")
}
