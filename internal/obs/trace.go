package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultTraceEvents bounds a tracer's in-memory event buffer. At ~64
// bytes an event this is a few tens of MB worst case; overflow drops the
// event and counts it rather than growing without bound (see doc.go).
const DefaultTraceEvents = 1 << 18

// traceDropped counts span events discarded because a tracer's buffer
// was full.
var traceDropped = NewCounter("soft_trace_events_dropped_total")

// LocalPid is the pid under which the local process's own spans render
// in the Chrome trace output. Segments merged from other processes are
// assigned pids starting at LocalPid+1.
const LocalPid = 1

// traceEvent is one completed span in Chrome trace-event terms: a
// complete ("ph":"X") event with microsecond timestamp and duration.
type traceEvent struct {
	name   string
	ts     int64 // µs since the tracer started
	dur    int64 // µs
	pid    int64 // LocalPid for local spans; merged segments carry their own
	tid    int64
	id     uint64 // span id (unique within the process; 0 = unassigned)
	parent uint64 // parent span id (possibly from another process; 0 = none)
}

// Tracer collects spans for one run. Exactly one tracer is active
// process-wide at a time (StartTracing installs, Stop uninstalls); with
// none active, StartSpan is a single atomic load returning a no-op Span.
type Tracer struct {
	start     time.Time
	baseMicro int64 // wall-clock µs at start; rebases cross-process segments
	limit     int

	mu     sync.Mutex
	events []traceEvent
	names  map[int64]string // pid → process name ("M" metadata on write)
}

// activeTracer is the installed tracer, nil when tracing is off.
var activeTracer atomic.Pointer[Tracer]

// spanIDs hands out process-unique span ids. Ids only need to be unique
// within one process's segment stream; the merge keys parent links by
// (origin process, id) implicitly because segments ship whole.
var spanIDs atomic.Uint64

func newTracer() *Tracer {
	return &Tracer{
		start:     time.Now(),
		baseMicro: time.Now().UnixMicro(),
		limit:     DefaultTraceEvents,
		names:     make(map[int64]string),
	}
}

// StartTracing installs a fresh tracer with the default buffer bound and
// returns it. A previously installed tracer is displaced (its spans stop
// accumulating but remain writable).
func StartTracing() *Tracer {
	t := newTracer()
	activeTracer.Store(t)
	return t
}

// Tracing reports whether a tracer is installed.
func Tracing() bool { return activeTracer.Load() != nil }

// Active returns the installed tracer, or nil when tracing is off. It is
// how cross-process plumbing (the fleet merging worker segments, the
// campaign client merging a downloaded bundle) reaches the run's tracer.
func Active() *Tracer { return activeTracer.Load() }

// Stop uninstalls t if it is the active tracer. Spans started before the
// stop still record into t when they end.
func (t *Tracer) Stop() {
	activeTracer.CompareAndSwap(t, nil)
}

// record appends one completed span, dropping on overflow.
func (t *Tracer) record(ev traceEvent) {
	t.mu.Lock()
	if len(t.events) >= t.limit {
		t.mu.Unlock()
		traceDropped.Inc()
		return
	}
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// MergeSegment splices a segment recorded by another process into t's
// timeline under the given pid. Timestamps rebase via the two tracers'
// wall clocks (coordinator and workers share a machine or an NTP domain;
// skew shifts a worker's track, it never corrupts it). Events with no
// parent of their own inherit the segment's parent span, which is how a
// worker's spans nest under the coordinator lease span that granted the
// work. Buffer overflow drops the remainder and counts the drops.
func (t *Tracer) MergeSegment(seg Segment, pid int64) {
	offset := seg.BaseUnixMicro - t.baseMicro
	t.mu.Lock()
	if seg.Process != "" {
		t.names[pid] = seg.Process
	}
	for _, ev := range seg.Events {
		if len(t.events) >= t.limit {
			t.mu.Unlock()
			traceDropped.Inc()
			return
		}
		parent := ev.Parent
		if parent == 0 {
			parent = seg.Parent
		}
		t.events = append(t.events, traceEvent{
			name:   ev.Name,
			ts:     ev.TS + offset,
			dur:    ev.Dur,
			pid:    pid,
			tid:    ev.TID,
			id:     ev.ID,
			parent: parent,
		})
	}
	t.mu.Unlock()
}

// Drain removes the buffered events and returns them grouped by pid as
// serializable segments (sorted by pid, the local process first). The
// tracer keeps collecting afterwards — a fleet worker drains once per
// traced lease while its tracer lives on.
func (t *Tracer) Drain() []Segment {
	t.mu.Lock()
	events := t.events
	t.events = nil
	names := make(map[int64]string, len(t.names))
	for pid, n := range t.names {
		names[pid] = n
	}
	base := t.baseMicro
	t.mu.Unlock()

	byPid := make(map[int64][]SegmentEvent)
	for _, ev := range events {
		byPid[ev.pid] = append(byPid[ev.pid], SegmentEvent{
			Name:   ev.name,
			TS:     ev.ts,
			Dur:    ev.dur,
			TID:    ev.tid,
			ID:     ev.id,
			Parent: ev.parent,
		})
	}
	pids := make([]int64, 0, len(byPid))
	for pid := range byPid {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	segs := make([]Segment, 0, len(pids))
	for _, pid := range pids {
		segs = append(segs, Segment{
			Process:       names[pid],
			Pid:           pid,
			BaseUnixMicro: base,
			Events:        byPid[pid],
		})
	}
	return segs
}

// WriteJSON renders the collected spans as a Chrome trace-event JSON
// object ({"traceEvents": [...]}) loadable by Perfetto. Named pids gain
// "process_name" metadata events so merged worker tracks carry their
// worker names. (Not named WriteTo: this is not the io.WriterTo
// contract.)
func (t *Tracer) WriteJSON(w io.Writer) error {
	t.mu.Lock()
	events := t.events
	names := make(map[int64]string, len(t.names))
	for pid, n := range t.names {
		names[pid] = n
	}
	t.mu.Unlock()
	return writeChromeJSON(w, events, names)
}

func writeChromeJSON(w io.Writer, events []traceEvent, names map[int64]string) error {
	pids := make([]int64, 0, len(names))
	for pid := range names {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })

	bw := bufio.NewWriter(w)
	bw.WriteString("{\"traceEvents\":[\n")
	total := len(pids) + len(events)
	n := 0
	sep := func() string {
		n++
		if n == total {
			return ""
		}
		return ","
	}
	for _, pid := range pids {
		fmt.Fprintf(bw, "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":%q}}%s\n",
			pid, names[pid], sep())
	}
	for _, ev := range events {
		pid := ev.pid
		if pid == 0 {
			pid = LocalPid
		}
		fmt.Fprintf(bw, "{\"name\":%q,\"ph\":\"X\",\"ts\":%d,\"dur\":%d,\"pid\":%d,\"tid\":%d",
			ev.name, ev.ts, ev.dur, pid, ev.tid)
		if ev.id != 0 || ev.parent != 0 {
			fmt.Fprintf(bw, ",\"args\":{\"span\":%d,\"parent\":%d}", ev.id, ev.parent)
		}
		fmt.Fprintf(bw, "}%s\n", sep())
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}

// Span is one phase under measurement. The zero Span (tracing off) is
// valid and End is a no-op on it.
type Span struct {
	t     *Tracer
	start time.Time
	name  string
	tid   int64
	id    uint64
}

// StartSpan begins a span against the active tracer, or returns a no-op
// Span when tracing is off. Each live span gets a process-unique id so
// cross-process children can name it as their parent.
func StartSpan(name string) Span {
	t := activeTracer.Load()
	if t == nil {
		return Span{}
	}
	return Span{t: t, name: name, start: time.Now(), id: spanIDs.Add(1)}
}

// ID returns the span's process-unique id (0 for a no-op span). The
// fleet ships a lease span's id to the worker so the worker's segment
// nests under it in the merged trace.
func (s Span) ID() uint64 { return s.id }

// WithTID tags the span with a lane id (worker index, job number) so
// concurrent phases render on separate tracks.
func (s Span) WithTID(tid int) Span {
	s.tid = int64(tid)
	return s
}

// End completes the span and records it.
func (s Span) End() { s.EndMin(0) }

// EndMin completes the span but records it only if it lasted at least
// min — the gate that keeps very hot call sites (individual SAT solves)
// from flooding the buffer with sub-threshold events.
func (s Span) EndMin(min time.Duration) {
	if s.t == nil {
		return
	}
	dur := time.Since(s.start)
	if dur < min {
		return
	}
	s.t.record(traceEvent{
		name: s.name,
		ts:   s.start.Sub(s.t.start).Microseconds(),
		dur:  dur.Microseconds(),
		pid:  LocalPid,
		tid:  s.tid,
		id:   s.id,
	})
}
