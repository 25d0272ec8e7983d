package store

import "testing"

// TestKeyStringPinned pins the cache key's rendered form byte-for-byte.
// The incremental solver stack (assumption-stack sessions, hash-consed
// interning) is deliberately invisible here: solver modes
// never change a cell's result, so a store warmed before the incremental
// work must keep answering after it — any field added to this string
// silently invalidates every existing store.
func TestKeyStringPinned(t *testing.T) {
	k := Key{
		Agent:       "ref",
		Test:        "Packet Out",
		CodeVersion: "v-test",
		Config: Config{
			MaxPaths:     100,
			MaxDepth:     32,
			Models:       true,
			CanonicalCut: true,
		},
	}
	want := `agent="ref" test="Packet Out" code="v-test" maxpaths=100 maxdepth=32 models=true clausesharing=false canonicalcut=true`
	if got := k.String(); got != want {
		t.Fatalf("cache key rendering changed:\n want %s\n  got %s", want, got)
	}

	k.Scenario = "sha:abc"
	want += ` scenario="sha:abc"`
	if got := k.String(); got != want {
		t.Fatalf("scenario cache key rendering changed:\n want %s\n  got %s", want, got)
	}
}
