package dist

import (
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"
	"time"

	"github.com/soft-testing/soft/internal/coverage"
	"github.com/soft-testing/soft/internal/harness"
	"github.com/soft-testing/soft/internal/obs"
	"github.com/soft-testing/soft/internal/solver"
	"github.com/soft-testing/soft/internal/sym"
)

// bitsFromSeed expands fuzzer scalars into a decision prefix.
func bitsFromSeed(n uint8, pattern uint64) []bool {
	out := make([]bool, int(n)%67) // cover empty through just-past-one-word
	for i := range out {
		out[i] = pattern&(1<<(i%64)) != 0
	}
	return out
}

// FuzzFrameRoundTrip: any (type, payload) pair must survive write → read.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(byte(msgHello), []byte{})
	f.Add(byte(msgLease), []byte{1, 2, 3})
	f.Add(byte(msgResult), bytes.Repeat([]byte{0xab}, 4096))
	f.Fuzz(func(t *testing.T, mt byte, payload []byte) {
		var buf bytes.Buffer
		if err := writeFrame(&buf, msgType(mt), payload); err != nil {
			t.Fatalf("writeFrame: %v", err)
		}
		gt, gp, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("readFrame of own output: %v", err)
		}
		if gt != msgType(mt) || !bytes.Equal(gp, payload) {
			t.Fatalf("frame mismatch: (%d, %d bytes) vs (%d, %d bytes)", gt, len(gp), mt, len(payload))
		}
		if buf.Len() != 0 {
			t.Fatalf("%d trailing bytes after frame", buf.Len())
		}
	})
}

// FuzzReadFrame: arbitrary bytes must never panic the frame reader, and a
// successful read never exceeds the frame cap.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1})
	f.Add([]byte{0, 0, 0, 2, 5, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, payload, err := readFrame(bytes.NewReader(data))
		if err == nil && len(payload)+1 > maxFrame {
			t.Fatalf("accepted oversized frame (%d bytes)", len(payload))
		}
	})
}

// FuzzLeaseRoundTrip covers the prefix-batch payload: job and lease ids
// plus several bit-packed decision prefixes of every length and pattern.
func FuzzLeaseRoundTrip(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint8(1), uint8(0), uint64(0), false, uint64(0), uint64(0))
	f.Add(uint64(3), uint64(42), uint8(4), uint8(7), uint64(0b1010101), true, uint64(0xfeed), uint64(12))
	f.Add(^uint64(0), ^uint64(0), uint8(17), uint8(66), ^uint64(0), true, ^uint64(0), ^uint64(0))
	f.Fuzz(func(t *testing.T, job, id uint64, count, n uint8, pattern uint64, traced bool, traceID, parentSpan uint64) {
		l := lease{job: job, id: id, traced: traced, traceID: traceID, parentSpan: parentSpan}
		for i := 0; i < int(count)%9; i++ {
			l.prefixes = append(l.prefixes, bitsFromSeed(n+uint8(i), pattern^uint64(i)))
		}
		if len(l.prefixes) == 0 {
			l.prefixes = [][]bool{nil}
		}
		got, err := decodeLease(encodeLease(l))
		if err != nil {
			t.Fatalf("decodeLease of own output: %v", err)
		}
		if got.job != l.job || got.id != l.id || len(got.prefixes) != len(l.prefixes) {
			t.Fatalf("lease mismatch: %+v vs %+v", got, l)
		}
		if got.traced != l.traced || got.traceID != l.traceID || got.parentSpan != l.parentSpan {
			t.Fatalf("lease trace context mismatch: %+v vs %+v", got, l)
		}
		for p := range l.prefixes {
			if len(got.prefixes[p]) != len(l.prefixes[p]) {
				t.Fatalf("prefix %d length mismatch", p)
			}
			for i := range l.prefixes[p] {
				if got.prefixes[p][i] != l.prefixes[p][i] {
					t.Fatalf("prefix %d bit %d flipped", p, i)
				}
			}
		}
	})
}

// FuzzHelloJobRoundTrip covers the handshake and job-announcement payloads
// (plus the reject frame's version field).
func FuzzHelloJobRoundTrip(f *testing.F) {
	f.Add(uint64(1), "worker/1", uint64(0), "ref", "Packet Out", int64(100), int64(64), true, false, uint64(0))
	f.Add(uint64(0), "", uint64(7), "", "", int64(0), int64(0), false, true, uint64(0xdead))
	f.Add(^uint64(0), "ünïcödé\nworker", ^uint64(0), "agent \"q\"", "test\ttab", int64(-5), int64(1<<40), true, true, ^uint64(0))
	f.Fuzz(func(t *testing.T, version uint64, name string, jobID uint64, agent, test string, maxPaths, maxDepth int64, models, traced bool, traceID uint64) {
		h, err := decodeHello(encodeHello(hello{version: version, name: name}))
		if err != nil {
			t.Fatalf("decodeHello of own output: %v", err)
		}
		if h.version != version || h.name != name {
			t.Fatalf("hello mismatch: %+v", h)
		}
		j := jobMsg{
			id: jobID, agent: agent, test: test,
			maxPaths: int(maxPaths), maxDepth: int(maxDepth),
			models: models, traced: traced, traceID: traceID,
		}
		gj, err := decodeJob(encodeJob(j))
		if err != nil {
			t.Fatalf("decodeJob of own output: %v", err)
		}
		if gj != j {
			t.Fatalf("job mismatch: %+v vs %+v", gj, j)
		}
		r, err := decodeReject(encodeReject(reject{want: version}))
		if err != nil {
			t.Fatalf("decodeReject of own output: %v", err)
		}
		if r.want != version {
			t.Fatalf("reject version mismatch: %d vs %d", r.want, version)
		}
	})
}

// fuzzCovMap is a small fixed coverage universe for shard payload fuzzing.
func fuzzCovMap() *coverage.Map {
	m := coverage.NewMap()
	for _, b := range []struct {
		name  string
		instr int
	}{{"parse", 10}, {"validate", 7}, {"apply", 22}} {
		m.Block(b.name, b.instr)
	}
	m.BranchSite("type-switch")
	m.BranchSite("len-check")
	m.Seal()
	return m
}

// buildShard assembles a Shard from fuzzer-chosen scalars, mirroring
// harness's results_fuzz_test buildResult: conditions and trace expressions
// are real sym expressions, coverage sets live over a fixed universe.
func buildShard(covMap *coverage.Map, out1, out2 string, crashed bool, bound, modelVal uint64, truncated bool, decisionSeed uint64, stats int64) *harness.Shard {
	x := sym.Var("x", 16)
	y := sym.Var("po.port", 16)
	cond1 := sym.Ult(x, sym.Const(16, bound&0xffff))
	cond2 := sym.LAnd(sym.LNot(cond1), sym.EqConst(y, modelVal&0xffff))

	cov1 := covMap.NewSet()
	cov1.CoverBlock(0)
	cov1.CoverBranch(0, decisionSeed&1 == 0)
	cov2 := covMap.NewSet()
	cov2.CoverBlock(2)
	cov2.CoverBranch(1, true)
	cum := covMap.NewSet()
	cum.Merge(cov1)
	cum.Merge(cov2)

	sh := &harness.Shard{
		Cov:            cum,
		Truncated:      truncated,
		Infeasible:     int(stats & 0xff),
		DepthTruncated: int(stats >> 8 & 0xff),
		BranchQueries:  stats,
		Stats: solver.Stats{
			Queries:       stats,
			CacheHits:     stats / 2,
			SatQueries:    stats / 3,
			UnsatQueries:  stats / 4,
			SolveTime:     time.Duration(stats),
			MaxQuerySize:  stats / 5,
			ClausesTotal:  stats / 6,
			AuxVarsTotal:  stats / 7,
			FastPathConst: stats / 8,
		},
	}
	sh.Paths = append(sh.Paths,
		harness.ShardPath{
			SerializedPath: harness.SerializedPath{
				ID: 0, Cond: cond1, Template: out1, Canonical: out1,
				Exprs: []*sym.Expr{x}, Branches: 1,
			},
			Decisions: bitsFromSeed(uint8(decisionSeed), decisionSeed),
			Cov:       cov1,
		},
		harness.ShardPath{
			SerializedPath: harness.SerializedPath{
				ID: 1, Cond: cond2, Template: out1 + "\n" + out2, Canonical: out2,
				Exprs: []*sym.Expr{x, y}, Crashed: crashed, Branches: 2,
				Model: sym.Assignment{"x": bound & 0xffff, "po.port": modelVal & 0xffff},
			},
			Decisions: bitsFromSeed(uint8(decisionSeed>>8), ^decisionSeed),
			Cov:       cov2,
		},
	)
	return sh
}

// FuzzShardResultRoundTrip is the partial-result payload property: any
// shard batch assembled from fuzzer inputs must survive encode → decode
// with every field intact, including bit-packed decisions and coverage
// bitmaps.
func FuzzShardResultRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint64(3), "msg:ERROR/BAD_ACTION/4", "pkt-out:port=FLOOD", false, uint64(25), uint64(0xfffd), false, uint64(0x5a), int64(12345))
	f.Add(uint64(0), uint64(0), "", "", true, uint64(0), uint64(0), true, uint64(0), int64(0))
	f.Add(^uint64(0), ^uint64(0), "line1\nline2", "tab\tand\\backslash", true, uint64(1<<40), uint64(7), true, ^uint64(0), int64(-9))
	// Strings that look like expression references stay strings; bound ==
	// modelVal makes the second path's condition share more nodes.
	f.Add(uint64(4), uint64(5), "#0", "(add #0 #1)", false, uint64(9), uint64(9), false, uint64(3), int64(7))
	f.Add(uint64(6), uint64(7), "expr #2", "#18446744073709551616", true, uint64(0xffff), uint64(0xffff), true, uint64(9), int64(1))
	f.Fuzz(func(t *testing.T, jobID, leaseID uint64, out1, out2 string, crashed bool, bound, modelVal uint64, truncated bool, decisionSeed uint64, stats int64) {
		covMap := fuzzCovMap()
		// Two frames of one lease exercise the per-prefix framing.
		wants := []*harness.Shard{
			buildShard(covMap, out1, out2, crashed, bound, modelVal, truncated, decisionSeed, stats),
			buildShard(covMap, out2, out1, !crashed, modelVal, bound, !truncated, ^decisionSeed, stats/2),
		}
		for i, want := range wants {
			payload := encodeResult(resultMsg{job: jobID, lease: leaseID, index: uint64(i), shard: want})
			got, err := decodeResult(payload, covMap)
			if err != nil {
				t.Fatalf("decodeResult of own output: %v\npayload: %x", err, payload)
			}
			if got.job != jobID || got.lease != leaseID || got.index != uint64(i) {
				t.Fatalf("ids (%d, %d, %d), want (%d, %d, %d)", got.job, got.lease, got.index, jobID, leaseID, i)
			}
			compareShard(t, got.shard, want)
		}
	})
}

// compareShard asserts two shard payloads are field-for-field identical.
func compareShard(t *testing.T, gs, want *harness.Shard) {
	t.Helper()
	if gs.Truncated != want.Truncated || gs.Infeasible != want.Infeasible ||
		gs.DepthTruncated != want.DepthTruncated || gs.BranchQueries != want.BranchQueries {
		t.Fatalf("shard counters mismatch: %+v vs %+v", gs, want)
	}
	if gs.Stats != want.Stats {
		t.Fatalf("stats mismatch: %+v vs %+v", gs.Stats, want.Stats)
	}
	if !covEqual(gs.Cov, want.Cov) {
		t.Fatal("cumulative coverage mismatch")
	}
	if len(gs.Paths) != len(want.Paths) {
		t.Fatalf("path count %d, want %d", len(gs.Paths), len(want.Paths))
	}
	for i := range want.Paths {
		gp, wp := &gs.Paths[i], &want.Paths[i]
		if gp.Crashed != wp.Crashed || gp.Branches != wp.Branches ||
			gp.Template != wp.Template || gp.Canonical != wp.Canonical {
			t.Fatalf("path %d header mismatch: %+v vs %+v", i, gp.SerializedPath, wp.SerializedPath)
		}
		if !sym.Equal(gp.Cond, wp.Cond) {
			t.Fatalf("path %d condition mismatch: %s vs %s", i, gp.Cond, wp.Cond)
		}
		if len(gp.Exprs) != len(wp.Exprs) {
			t.Fatalf("path %d expr count mismatch", i)
		}
		for j := range wp.Exprs {
			if !sym.Equal(gp.Exprs[j], wp.Exprs[j]) {
				t.Fatalf("path %d expr %d mismatch", i, j)
			}
		}
		if len(gp.Decisions) != len(wp.Decisions) {
			t.Fatalf("path %d decisions length mismatch", i)
		}
		for j := range wp.Decisions {
			if gp.Decisions[j] != wp.Decisions[j] {
				t.Fatalf("path %d decision %d flipped", i, j)
			}
		}
		if len(gp.Model) != len(wp.Model) {
			t.Fatalf("path %d model size mismatch", i)
		}
		for k, v := range wp.Model {
			if gp.Model[k] != v {
				t.Fatalf("path %d model[%q] = %d, want %d", i, k, gp.Model[k], v)
			}
		}
		if !covEqual(gp.Cov, wp.Cov) {
			t.Fatalf("path %d coverage mismatch", i)
		}
	}
}

// covEqual compares coverage sets by bitmap.
func covEqual(a, b *coverage.Set) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	ab, abr := a.Snapshot()
	bb, bbr := b.Snapshot()
	if len(ab) != len(bb) || len(abr) != len(bbr) {
		return false
	}
	for i := range ab {
		if ab[i] != bb[i] {
			return false
		}
	}
	return bytes.Equal(abr, bbr)
}

// FuzzDecodeResult throws arbitrary bytes at the shard-result decoder: it
// must reject or accept without panicking, and whatever it accepts must be
// internally consistent enough to merge.
func FuzzDecodeResult(f *testing.F) {
	covMap := fuzzCovMap()
	good := encodeResult(resultMsg{job: 2, lease: 1, index: 0,
		shard: buildShard(covMap, "a", "b", false, 10, 20, false, 0x33, 77)})
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add(good[:len(good)/2])
	for _, p := range badReferencePayloads(f) {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeResult(data, fuzzCovMap())
		if err == nil && m.shard == nil {
			t.Fatal("nil shard accepted")
		}
	})
}

// badReferencePayloads encodes a good shard, then swaps its first path
// condition for dangling, forward and self references.
func badReferencePayloads(tb testing.TB) [][]byte {
	covMap := fuzzCovMap()
	good := encodeResult(resultMsg{job: 2, lease: 1, index: 0,
		shard: buildShard(covMap, "a", "b", false, 10, 20, false, 0x33, 77)})
	lenPrefixed := func(s string) []byte { return append(binary.AppendUvarint(nil, uint64(len(s))), s...) }
	cond := lenPrefixed("(ult (var x 16) (const 16 10))")
	if bytes.Count(good, cond) != 1 {
		tb.Fatalf("first condition not found once in the payload")
	}
	var out [][]byte
	for _, bad := range []string{
		"#0",                  // dangling: nothing numbered yet
		"(ult (var x 16) #5)", // dangling
		"(ult #1 #0)",         // forward: #0 is the var only once parsed
		"(ult (var x 16) #1)", // self: #1 is the ult itself
	} {
		out = append(out, bytes.Replace(good, cond, lenPrefixed(bad), 1))
	}
	return out
}

// TestDecodeResultBadReferences: a payload whose expressions reference a
// node not yet decoded is an error, never a panic.
func TestDecodeResultBadReferences(t *testing.T) {
	for i, p := range badReferencePayloads(t) {
		if _, err := decodeResult(p, fuzzCovMap()); err == nil || !strings.Contains(err.Error(), "names no earlier node") {
			t.Fatalf("payload %d: got error %v, want a reference error", i, err)
		}
	}
}

// FuzzTraceRoundTrip covers the v5 span-segment payload: a worker's
// buffered spans must survive encode → decode with every event field
// intact, since the coordinator rebases timestamps off these values when
// merging the cross-process timeline.
func FuzzTraceRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint64(2), "worker/w1", int64(1700000000_000000), uint64(7), uint8(3), "shard", int64(10), int64(250), int64(4), uint64(100))
	f.Add(uint64(0), uint64(0), "", int64(0), uint64(0), uint8(0), "", int64(0), int64(0), int64(0), uint64(0))
	f.Add(^uint64(0), ^uint64(0), "pröc\n\"q\"", int64(-5), ^uint64(0), uint8(9), "span\twith\ttabs", int64(-1), int64(1<<50), int64(-9), ^uint64(0))
	f.Fuzz(func(t *testing.T, job, leaseID uint64, process string, base int64, parent uint64, count uint8, name string, ts, dur, tid int64, id uint64) {
		m := traceMsg{job: job, lease: leaseID, seg: obs.Segment{
			Process: process, BaseUnixMicro: base, Parent: parent,
		}}
		for i := 0; i < int(count)%5; i++ {
			k := int64(i)
			m.seg.Events = append(m.seg.Events, obs.SegmentEvent{
				Name: name, TS: ts + k, Dur: dur - k, TID: tid ^ k,
				ID: id + uint64(i), Parent: parent ^ uint64(i),
			})
		}
		got, err := decodeTrace(encodeTrace(m))
		if err != nil {
			t.Fatalf("decodeTrace of own output: %v", err)
		}
		if got.job != m.job || got.lease != m.lease {
			t.Fatalf("trace ids (%d, %d), want (%d, %d)", got.job, got.lease, m.job, m.lease)
		}
		gs, ws := got.seg, m.seg
		if gs.Process != ws.Process || gs.BaseUnixMicro != ws.BaseUnixMicro || gs.Parent != ws.Parent {
			t.Fatalf("segment header mismatch: %+v vs %+v", gs, ws)
		}
		if len(gs.Events) != len(ws.Events) {
			t.Fatalf("event count %d, want %d", len(gs.Events), len(ws.Events))
		}
		for i := range ws.Events {
			if gs.Events[i] != ws.Events[i] {
				t.Fatalf("event %d mismatch: %+v vs %+v", i, gs.Events[i], ws.Events[i])
			}
		}
	})
}

// FuzzDecodeHelloLease throws arbitrary bytes at the small-message
// decoders.
func FuzzDecodeHelloLease(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeHello(hello{version: 1, name: "w"}))
	f.Add(encodeLease(lease{job: 1, id: 9, traced: true, traceID: 0xbeef, parentSpan: 4, prefixes: [][]bool{{true, false, true}, {false}}}))
	f.Add(encodeJob(jobMsg{id: 3, agent: "ref", test: "Packet Out", traced: true, traceID: 0xfeed}))
	f.Add(encodeTrace(traceMsg{job: 3, lease: 9, seg: obs.Segment{
		Process: "worker/w1", BaseUnixMicro: 42, Parent: 7,
		Events: []obs.SegmentEvent{{Name: "shard", TS: 1, Dur: 2, TID: 3, ID: 4, Parent: 7}},
	}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeHello(data)
		decodeLease(data)
		decodeJob(data)
		decodeProgress(data)
		decodeReject(data)
		decodeTrace(data)
	})
}

// TestFrameTooLarge pins the frame cap on both ends.
func TestFrameTooLarge(t *testing.T) {
	if err := writeFrame(io.Discard, msgResult, make([]byte, maxFrame)); err == nil {
		t.Fatal("writeFrame accepted an oversized payload")
	}
	var hdr [5]byte
	hdr[0], hdr[1], hdr[2], hdr[3] = 0xff, 0xff, 0xff, 0xff
	if _, _, err := readFrame(bytes.NewReader(hdr[:])); err == nil {
		t.Fatal("readFrame accepted an oversized length")
	}
}
