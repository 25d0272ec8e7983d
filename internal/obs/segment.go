package obs

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
)

// SegmentEvent is one completed span inside a shipped segment.
// Timestamps are microseconds relative to the segment's BaseUnixMicro,
// exactly as the originating tracer recorded them.
type SegmentEvent struct {
	Name   string
	TS     int64
	Dur    int64
	TID    int64
	ID     uint64
	Parent uint64
}

// Segment is one process's slice of a distributed trace: the spans one
// tracer buffered, stamped with the wall-clock base that lets a
// receiving tracer rebase them into its own timeline. Workers ship
// segments to the coordinator over the dist protocol.
type Segment struct {
	// Process names the originating process ("workerA", "coordinator");
	// it becomes the pid's track name in the merged trace.
	Process string
	// Pid is the pid the draining tracer had assigned (informational;
	// receivers remap pids wholesale).
	Pid int64
	// BaseUnixMicro is the originating tracer's start in wall-clock µs.
	BaseUnixMicro int64
	// Parent, when set, is the span id (in the receiving process) every
	// parentless event of this segment nests under — the coordinator
	// lease span that granted the work.
	Parent uint64
	Events []SegmentEvent
}

// Bundle is a set of segments forming one run's distributed trace, such
// as everything a coordinator drained after its workers shipped theirs.
type Bundle struct {
	Segments []Segment
}

// WriteChromeJSON renders the bundle as one merged Chrome trace-event
// JSON file: segments are rebased onto the earliest base and assigned
// pids in order (the first segment — conventionally the coordinator —
// gets LocalPid).
func (b *Bundle) WriteChromeJSON(w io.Writer) error {
	t := newTracer()
	if len(b.Segments) > 0 {
		base := b.Segments[0].BaseUnixMicro
		for _, seg := range b.Segments[1:] {
			if seg.BaseUnixMicro < base {
				base = seg.BaseUnixMicro
			}
		}
		t.baseMicro = base
	}
	for i, seg := range b.Segments {
		t.MergeSegment(seg, int64(LocalPid+i))
	}
	return t.WriteJSON(w)
}

// NewTraceID returns a random non-zero 64-bit trace id. Trace ids are
// correlation labels — they thread through log lines and wire frames so
// one campaign's activity can be grepped across processes — and are
// never part of any computed result.
func NewTraceID() uint64 {
	var b [8]byte
	for {
		if _, err := rand.Read(b[:]); err != nil {
			// Fall back to the span-id counter; uniqueness within the
			// process is all correlation needs.
			return spanIDs.Add(1) | 1<<63
		}
		if id := binary.BigEndian.Uint64(b[:]); id != 0 {
			return id
		}
	}
}

// FormatTraceID renders a trace id in the fixed-width hex form used in
// log fields.
func FormatTraceID(id uint64) string { return fmt.Sprintf("%016x", id) }
