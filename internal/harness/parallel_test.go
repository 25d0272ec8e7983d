package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"testing"

	"github.com/soft-testing/soft/internal/agents"
	"github.com/soft-testing/soft/internal/agents/ovs"
	"github.com/soft-testing/soft/internal/agents/refswitch"
)

// serializeCanonical renders a Result in the results-file format with the
// wall-clock line zeroed, so runs can be compared byte for byte.
func serializeCanonical(t *testing.T, r *Result) []byte {
	t.Helper()
	clone := *r
	clone.Elapsed = 0
	var buf bytes.Buffer
	if err := clone.Write(&buf); err != nil {
		t.Fatalf("serialize: %v", err)
	}
	return buf.Bytes()
}

// TestParallelExploreDeterminism is the paper's no-false-positive property
// under concurrency: phase 1 run with 4 workers must ship byte-identical
// intermediate results to a sequential run, for both agents. Everything
// downstream (grouping, crosschecking) consumes only this serialized form,
// so identical bytes here imply identical inconsistency reports.
func TestParallelExploreDeterminism(t *testing.T) {
	cases := []struct {
		agent func() agents.Agent
		test  string
	}{
		{func() agents.Agent { return refswitch.New() }, "Packet Out"},
		{func() agents.Agent { return refswitch.New() }, "Stats Request"},
		{func() agents.Agent { return ovs.New() }, "Packet Out"},
		{func() agents.Agent { return ovs.New() }, "Stats Request"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.test+"/"+c.agent().Name(), func(t *testing.T) {
			tt, ok := TestByName(c.test)
			if !ok {
				t.Fatalf("missing test %s", c.test)
			}
			seq := Explore(c.agent(), tt, Options{WantModels: true, Workers: 1})
			par := Explore(c.agent(), tt, Options{WantModels: true, Workers: 4})
			a, b := serializeCanonical(t, seq), serializeCanonical(t, par)
			if !bytes.Equal(a, b) {
				t.Fatalf("parallel results differ from sequential (%d vs %d paths)",
					len(seq.Paths), len(par.Paths))
			}
		})
	}
}

// TestTruncatedExploreOrderPinned pins the interleaved order end to end. A
// non-canonical MaxPaths truncation keeps the first paths its one worker
// completes, so its bytes depend on every pop; a change to the order or to
// worker 0's seed moves this hash.
func TestTruncatedExploreOrderPinned(t *testing.T) {
	tt, ok := TestByName("Packet Out")
	if !ok {
		t.Fatal("missing test Packet Out")
	}
	r := Explore(ovs.New(), tt, Options{MaxPaths: 100, Workers: 1})
	if !r.Truncated || len(r.Paths) != 100 {
		t.Fatalf("want a truncated 100-path run, got truncated=%t with %d paths", r.Truncated, len(r.Paths))
	}
	sum := sha256.Sum256(serializeCanonical(t, r))
	const want = "78b53f7732b541bcb90a5249eeedd2b6b14efdadb61f166ad03ca59495f2b70e"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("truncated results hash %s, want %s", got, want)
	}
}

// TestParallelExploreRace hammers parallel exploration on both real agent
// models concurrently — the go test -race target for the full stack: wire
// parsing, flow table, coverage sets, blaster, and the work-stealing
// frontier all run on 8 workers × 2 simultaneous explorations.
func TestParallelExploreRace(t *testing.T) {
	tt, ok := TestByName("Packet Out")
	if !ok {
		t.Fatal("missing test Packet Out")
	}
	var wg sync.WaitGroup
	for _, mk := range []func() agents.Agent{
		func() agents.Agent { return refswitch.New() },
		func() agents.Agent { return ovs.New() },
	} {
		mk := mk
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := Explore(mk(), tt, Options{WantModels: true, Workers: 8})
			if len(r.Paths) == 0 {
				t.Error("exploration found no paths")
			}
		}()
	}
	wg.Wait()
}
