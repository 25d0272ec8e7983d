package store

import (
	"bytes"
	"testing"
	"time"

	"github.com/soft-testing/soft/internal/agents/refswitch"
	"github.com/soft-testing/soft/internal/harness"
)

// explore produces a real serialized result to cache.
func explore(t *testing.T) *harness.Result {
	t.Helper()
	tt, ok := harness.TestByName("Packet Out")
	if !ok {
		t.Fatal("missing test Packet Out")
	}
	return harness.Explore(refswitch.New(), tt, harness.Options{WantModels: true, Workers: 1})
}

func baseKey() Key {
	return Key{
		Agent: "ref", Test: "Packet Out", CodeVersion: "v1",
		Config: Config{MaxPaths: 100, MaxDepth: 64, Models: true, CanonicalCut: true},
	}
}

// TestResultRoundTrip: a stored result reads back byte-identically.
func TestResultRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res := explore(t)
	k := baseKey()

	if _, ok, err := s.GetResult(k); err != nil || ok {
		t.Fatalf("empty store returned a hit (ok=%t err=%v)", ok, err)
	}
	if err := s.PutResult(k, res); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.GetResult(k)
	if err != nil || !ok {
		t.Fatalf("stored result missing (ok=%t err=%v)", ok, err)
	}
	var want, have bytes.Buffer
	if err := res.Write(&want); err != nil {
		t.Fatal(err)
	}
	if err := got.Write(&have); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), have.Bytes()) {
		t.Fatal("cached result differs from the original")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

// TestKeyInvalidation is the satellite property: changing the agent, the
// code version, or any engine-config component (MaxPaths included) must
// miss the cache; the identical key must hit.
func TestKeyInvalidation(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res := explore(t)
	k := baseKey()
	if err := s.PutResult(k, res); err != nil {
		t.Fatal(err)
	}

	if _, ok, _ := s.GetResult(baseKey()); !ok {
		t.Fatal("identical key missed the cache")
	}

	mutations := map[string]func(*Key){
		"agent":         func(k *Key) { k.Agent = "ovs" },
		"test":          func(k *Key) { k.Test = "FlowMod" },
		"code version":  func(k *Key) { k.CodeVersion = "v2" },
		"max paths":     func(k *Key) { k.Config.MaxPaths = 101 },
		"max depth":     func(k *Key) { k.Config.MaxDepth = 65 },
		"models":        func(k *Key) { k.Config.Models = false },
		"canonical cut": func(k *Key) { k.Config.CanonicalCut = false },
	}
	for name, mutate := range mutations {
		k2 := baseKey()
		mutate(&k2)
		if k2.Hash() == baseKey().Hash() {
			t.Errorf("changing %s did not change the key hash", name)
		}
		if _, ok, err := s.GetResult(k2); err != nil || ok {
			t.Errorf("changing %s still hit the cache (ok=%t err=%v)", name, ok, err)
		}
	}
}

// TestResultHashIgnoresElapsed: two runs of the same exploration (distinct
// wall-clock) share a content hash; distinct results do not.
func TestResultHashIgnoresElapsed(t *testing.T) {
	res := explore(t)
	h1, err := ResultHash(res)
	if err != nil {
		t.Fatal(err)
	}
	clone := *res
	clone.Elapsed = res.Elapsed + 17*time.Millisecond
	h2, err := ResultHash(&clone)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatal("ResultHash depends on Elapsed")
	}
	other := *res
	other.Agent = "someone-else"
	h3, err := ResultHash(&other)
	if err != nil {
		t.Fatal(err)
	}
	if h3 == h1 {
		t.Fatal("distinct results share a content hash")
	}
}

// TestDefaultCodeVersion just pins that the helper returns something
// stable and non-empty for this binary.
func TestDefaultCodeVersion(t *testing.T) {
	v1, v2 := DefaultCodeVersion(), DefaultCodeVersion()
	if v1 == "" || v1 != v2 {
		t.Fatalf("DefaultCodeVersion unstable: %q vs %q", v1, v2)
	}
}
