package obs

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_counter")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("t_counter") != c {
		t.Fatal("re-registration returned a different counter")
	}
	g := r.Gauge("t_gauge")
	g.Set(7)
	g.Dec()
	g.Add(-2)
	if got := g.Load(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("t_clash")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.Gauge("t_clash")
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 4, 1000, -5} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if got := s.Count(); got != 7 {
		t.Fatalf("count = %d, want 7", got)
	}
	// -5 clamps to 0; 0 → bucket 0, 1 → bucket 1, 2,3 → bucket 2,
	// 4 → bucket 3, 1000 → bucket 10.
	wantCounts := map[int]int64{0: 2, 1: 1, 2: 2, 3: 1, 10: 1}
	for i, c := range s.Counts {
		if c != wantCounts[i] {
			t.Fatalf("bucket %d = %d, want %d", i, c, wantCounts[i])
		}
	}
	if s.Sum != 0+1+2+3+4+1000 {
		t.Fatalf("sum = %d", s.Sum)
	}
}

func TestHistogramQuantileAndSub(t *testing.T) {
	var h Histogram
	before := h.Snapshot()
	for i := 0; i < 90; i++ {
		h.Observe(100) // bucket 7, bound 127
	}
	for i := 0; i < 10; i++ {
		h.Observe(100000) // bucket 17, bound 131071
	}
	d := h.Snapshot().Sub(before)
	if got := d.Count(); got != 100 {
		t.Fatalf("diff count = %d, want 100", got)
	}
	if p50 := d.Quantile(0.5); p50 != 127 {
		t.Fatalf("p50 = %d, want 127", p50)
	}
	if p99 := d.Quantile(0.99); p99 != 131071 {
		t.Fatalf("p99 = %d, want 131071", p99)
	}
	if empty := (HistogramSnapshot{}).Quantile(0.5); empty != 0 {
		t.Fatalf("empty quantile = %d, want 0", empty)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < 1000; i++ {
				h.Observe(i)
			}
		}()
	}
	wg.Wait()
	if got := h.Snapshot().Count(); got != 8000 {
		t.Fatalf("count = %d, want 8000", got)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("t_requests_total").Add(3)
	r.Gauge("t_active").Set(2)
	h := r.Histogram("t_latency_ns")
	h.Observe(1)
	h.Observe(5)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE t_requests_total counter\nt_requests_total 3\n",
		"# TYPE t_active gauge\nt_active 2\n",
		"# TYPE t_latency_ns histogram\n",
		"t_latency_ns_bucket{le=\"1\"} 1\n",
		"t_latency_ns_bucket{le=\"7\"} 2\n",
		"t_latency_ns_bucket{le=\"+Inf\"} 2\n",
		"t_latency_ns_sum 6\n",
		"t_latency_ns_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Bucket series must be cumulative and monotone.
	if strings.Index(out, "le=\"1\"") > strings.Index(out, "le=\"7\"") {
		t.Fatal("bucket order not ascending")
	}
}

func TestTracerSpansAndJSON(t *testing.T) {
	tr := StartTracing()
	defer tr.Stop()
	sp := StartSpan("explore:ref/Packet Out").WithTID(3)
	time.Sleep(time.Millisecond)
	sp.End()
	StartSpan("discarded").EndMin(time.Hour) // below threshold: dropped
	tr.Stop()
	if Tracing() {
		t.Fatal("tracer still active after Stop")
	}
	// After Stop, new spans are no-ops.
	StartSpan("after-stop").End()

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Ts   int64  `json:"ts"`
			Dur  int64  `json:"dur"`
			Pid  int    `json:"pid"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(parsed.TraceEvents) != 1 {
		t.Fatalf("got %d events, want 1", len(parsed.TraceEvents))
	}
	ev := parsed.TraceEvents[0]
	if ev.Name != "explore:ref/Packet Out" || ev.Ph != "X" || ev.Tid != 3 {
		t.Fatalf("unexpected event %+v", ev)
	}
	if ev.Dur < 900 {
		t.Fatalf("dur = %dµs, want >= ~1000", ev.Dur)
	}
}

func TestTracerBufferBound(t *testing.T) {
	tr := &Tracer{start: time.Now(), limit: 2}
	activeTracer.Store(tr)
	defer tr.Stop()
	before := traceDropped.Load()
	for i := 0; i < 5; i++ {
		StartSpan("s").End()
	}
	if got := len(tr.events); got != 2 {
		t.Fatalf("buffered %d events, want 2", got)
	}
	if d := traceDropped.Load() - before; d != 3 {
		t.Fatalf("dropped = %d, want 3", d)
	}
}

// TestDrainGroupsByPid: drained segments come back grouped per pid with
// process names attached, and the tracer keeps collecting afterwards.
func TestDrainGroupsByPid(t *testing.T) {
	tr := StartTracing()
	defer tr.Stop()
	tr.names[LocalPid] = "coordinator"
	sp := StartSpan("job:1")
	sp.End()
	tr.MergeSegment(Segment{
		Process:       "worker/a",
		BaseUnixMicro: tr.baseMicro,
		Events:        []SegmentEvent{{Name: "shard:x", TS: 5, Dur: 2, ID: 9}},
	}, LocalPid+1)

	segs := tr.Drain()
	if len(segs) != 2 {
		t.Fatalf("got %d segments, want 2", len(segs))
	}
	if segs[0].Pid != LocalPid || segs[0].Process != "coordinator" {
		t.Fatalf("local segment first, got %+v", segs[0])
	}
	if segs[1].Pid != LocalPid+1 || segs[1].Process != "worker/a" || len(segs[1].Events) != 1 {
		t.Fatalf("unexpected worker segment %+v", segs[1])
	}
	if got := tr.Drain(); len(got) != 0 {
		t.Fatalf("second drain returned %d segments, want 0", len(got))
	}
	StartSpan("after-drain").End()
	if got := tr.Drain(); len(got) != 1 {
		t.Fatalf("tracer stopped collecting after drain: %d segments", len(got))
	}
}

// TestMergeSegmentNesting: parentless events inherit the segment's parent
// (the coordinator lease span), events with explicit parents keep them,
// and timestamps rebase via the two wall-clock bases.
func TestMergeSegmentNesting(t *testing.T) {
	tr := StartTracing()
	defer tr.Stop()
	const leaseSpan = 77
	tr.MergeSegment(Segment{
		Process:       "worker/a",
		BaseUnixMicro: tr.baseMicro + 1000, // worker tracer started 1ms later
		Parent:        leaseSpan,
		Events: []SegmentEvent{
			{Name: "shard:0", TS: 10, Dur: 3, ID: 5},
			{Name: "solve", TS: 11, Dur: 1, ID: 6, Parent: 5},
		},
	}, LocalPid+1)
	if len(tr.events) != 2 {
		t.Fatalf("merged %d events, want 2", len(tr.events))
	}
	root, child := tr.events[0], tr.events[1]
	if root.parent != leaseSpan {
		t.Fatalf("parentless event's parent = %d, want lease span %d", root.parent, leaseSpan)
	}
	if child.parent != 5 {
		t.Fatalf("explicit parent overwritten: %d, want 5", child.parent)
	}
	if root.ts != 1010 {
		t.Fatalf("rebased ts = %d, want 1010", root.ts)
	}
	if root.pid != LocalPid+1 || child.pid != LocalPid+1 {
		t.Fatalf("merged events carry pids %d/%d, want %d", root.pid, child.pid, LocalPid+1)
	}
}

// TestBundleJSONRoundTrip: a bundle renders as one valid Chrome JSON
// trace with every segment's events present, one track per segment.
func TestBundleJSONRoundTrip(t *testing.T) {
	in := &Bundle{Segments: []Segment{
		{Process: "coordinator", Pid: 1, BaseUnixMicro: 100, Events: []SegmentEvent{{Name: "lease:1", ID: 3}}},
		{Process: "worker/a", Pid: 2, BaseUnixMicro: 150, Parent: 3, Events: []SegmentEvent{{Name: "shard:0", TS: 1, Dur: 2}}},
	}}
	var buf bytes.Buffer
	if err := in.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("chrome JSON invalid: %v\n%s", err, buf.String())
	}
	var spans, meta int
	for _, ev := range parsed.TraceEvents {
		switch ev.Ph {
		case "X":
			spans++
		case "M":
			meta++
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if spans != 2 || meta != 2 {
		t.Fatalf("got %d spans and %d metadata events, want 2 and 2", spans, meta)
	}
}

// TestTraceIDFormats pins the id's log-field form: fixed-width hex that
// reads back to the id.
func TestTraceIDFormats(t *testing.T) {
	id := NewTraceID()
	if id == 0 {
		t.Fatal("NewTraceID returned zero")
	}
	hex := FormatTraceID(id)
	if len(hex) != 16 {
		t.Fatalf("FormatTraceID(%x) = %q, want 16 hex digits", id, hex)
	}
	if got, err := strconv.ParseUint(hex, 16, 64); err != nil || got != id {
		t.Fatalf("trace id round trip: got %x, %v; want %x", got, err, id)
	}
	if got := FormatTraceID(0xab); got != "00000000000000ab" {
		t.Fatalf("FormatTraceID(0xab) = %q, want zero-padded", got)
	}
}
