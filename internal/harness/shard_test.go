package harness

import (
	"bytes"
	"context"
	"testing"

	"github.com/soft-testing/soft/internal/agents/refswitch"
)

// TestShardSplitMergeRoundTrip is the distributed-exploration invariant
// with the network removed: splitting the frontier at a shard depth,
// exploring every shard with a prefix-seeded engine, and merging must
// reproduce the single-process result byte for byte.
func TestShardSplitMergeRoundTrip(t *testing.T) {
	tt, ok := TestByName("Packet Out")
	if !ok {
		t.Fatal("missing test Packet Out")
	}
	want := serializeCanonical(t, Explore(refswitch.New(), tt, Options{WantModels: true, Workers: 4}))

	ctx := context.Background()
	var prefixes [][]bool
	local := ExploreShard(ctx, refswitch.New(), tt, Options{
		WantModels: true,
		ShardDepth: 2,
		ShardSink:  func(p []bool) { prefixes = append(prefixes, p) },
	})
	if len(prefixes) == 0 {
		t.Fatal("split produced no shards; the test tree is too shallow to exercise the merge")
	}
	t.Logf("split: %d local paths, %d shards", len(local.Paths), len(prefixes))

	shards := []*Shard{local}
	for _, p := range prefixes {
		shards = append(shards, ExploreShard(ctx, refswitch.New(), tt, Options{WantModels: true, Prefix: p, Workers: 2}))
	}
	agent := refswitch.New()
	merged, err := MergeShards(local.Agent, local.Test, local.MsgCount, agent.CovMap(), shards, DefaultMaxPaths)
	if err != nil {
		t.Fatalf("MergeShards: %v", err)
	}
	var buf bytes.Buffer
	if err := merged.Write(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("merged shards differ from single-process run (%d paths merged)", len(merged.Paths))
	}
}
