// Package trace defines the output events OpenFlow agents produce and their
// normalized canonical form. SOFT compares agents solely through these
// traces (§3.3): OpenFlow messages sent back to the controller, packets
// emitted on the data plane, explicit "nothing happened" probe responses,
// and abnormal termination.
//
// Normalization (§3.3, "Normalizing results") removes data whose
// differences are spurious: transaction ids, buffer identifiers, and
// padding never appear in events, so two agents that differ only in such
// fields produce equal traces.
//
// Because outputs may contain symbolic input expressions (§3.3: "the output
// data may even contain symbolic inputs"), an event separates its fixed
// structure (the template) from the embedded value expressions. Two events
// with equal templates but different expressions are only a real behavioral
// difference for inputs where the expressions evaluate differently; the
// crosscheck phase adds the corresponding disequality to its solver query,
// preserving SOFT's no-false-positives property (§3.4) even for outputs
// like "forward with VLAN = x & 0xfff" versus "forward with VLAN = x".
package trace

import (
	"fmt"
	"strings"

	"github.com/soft-testing/soft/internal/dataplane"
	"github.com/soft-testing/soft/internal/openflow"
	"github.com/soft-testing/soft/internal/sym"
)

// Event is one externally observable agent action: a fixed template with
// embedded value expressions.
type Event struct {
	// segments has len(exprs)+1 entries; the canonical rendering is
	// segments[0] + exprs[0] + segments[1] + ...
	segments []string
	exprs    []*sym.Expr
}

// Builder incrementally constructs an Event.
type Builder struct {
	segs  []string
	exprs []*sym.Expr
	cur   strings.Builder
}

// NewBuilder starts an event with a kind tag (e.g. "pkt-out").
func NewBuilder(kind string) *Builder {
	b := &Builder{}
	b.cur.WriteString(kind)
	return b
}

// Text appends fixed text.
func (b *Builder) Text(s string) *Builder {
	b.cur.WriteString(s)
	return b
}

// Textf appends formatted fixed text.
func (b *Builder) Textf(format string, args ...any) *Builder {
	fmt.Fprintf(&b.cur, format, args...)
	return b
}

// Expr appends a value expression slot. Constants are expressions too:
// keeping them in slots (rather than the template) lets the crosschecker
// compare a constant output against a symbolic one semantically.
func (b *Builder) Expr(e *sym.Expr) *Builder {
	b.segs = append(b.segs, b.cur.String())
	b.cur.Reset()
	b.exprs = append(b.exprs, e)
	return b
}

// Build finalizes the event.
func (b *Builder) Build() Event {
	segs := append(b.segs, b.cur.String())
	return Event{segments: segs, exprs: b.exprs}
}

// Canonical returns the full normalized rendering used to group paths by
// output result.
func (e Event) Canonical() string {
	var sb strings.Builder
	for i, s := range e.segments {
		sb.WriteString(s)
		if i < len(e.exprs) {
			sb.WriteString(exprStr(e.exprs[i]))
		}
	}
	return sb.String()
}

// Template returns the rendering with expression slots elided — the
// structural shape of the event.
func (e Event) Template() string {
	return strings.Join(e.segments, "⟨⟩")
}

// Exprs returns the embedded value expressions in slot order.
func (e Event) Exprs() []*sym.Expr { return e.exprs }

func exprStr(e *sym.Expr) string {
	if v, ok := e.ConstVal(); ok {
		return fmt.Sprintf("%#x", v)
	}
	return e.String()
}

// Msg builds an event for a simple OpenFlow message with no interesting
// body (BARRIER_REPLY, ECHO_REPLY, ...).
func Msg(t openflow.MsgType) Event {
	return NewBuilder("msg:").Textf("%v", t).Build()
}

// Error builds the normalized event for an error reply.
func Error(t openflow.ErrType, code uint16) Event {
	return NewBuilder("msg:ERROR/").Textf("%v/%d", t, code).Build()
}

// Crash is the abnormal-termination marker appended to crashed paths.
func Crash() Event { return NewBuilder("crash").Build() }

// Drop records an input consumed with no externally visible effect ("we
// log an empty probe response" — §3.3).
func Drop(what string) Event {
	return NewBuilder("drop:").Text(what).Build()
}

// packetFields appends the present fields of p to b in a fixed order.
func packetFields(b *Builder, p *dataplane.Packet) {
	add := func(name string, e *sym.Expr) {
		if e != nil {
			b.Text(" ").Text(name).Text("=").Expr(e)
		}
	}
	add("dl_dst", p.EthDst)
	add("dl_src", p.EthSrc)
	add("vlan", p.VLAN)
	add("pcp", p.PCP)
	add("dl_type", p.EthType)
	add("nw_src", p.NWSrc)
	add("nw_dst", p.NWDst)
	add("nw_tos", p.NWTos)
	add("nw_proto", p.NWProto)
	add("tp_src", p.TPSrc)
	add("tp_dst", p.TPDst)
	b.Textf(" payload=%x", p.Payload)
}

// PacketOut records a packet emitted on the data plane toward a port.
func PacketOut(port *sym.Expr, p *dataplane.Packet) Event {
	b := NewBuilder("pkt-out:port=")
	// Concrete reserved ports render as names inside the template: sending
	// to FLOOD versus to a numbered port is a structural difference.
	if v, ok := port.ConstVal(); ok {
		if n := openflow.PortName(uint16(v)); n != "" {
			b.Text(n)
		} else {
			b.Expr(port)
		}
	} else {
		b.Expr(port)
	}
	packetFields(b, p)
	return b.Build()
}

// PacketIn records a packet forwarded to the controller. The buffer id is
// intentionally absent (normalization); dataLen is how much of the packet
// was included (depends on miss_send_len, so possibly symbolic).
func PacketIn(reason uint8, dataLen *sym.Expr, p *dataplane.Packet) Event {
	b := NewBuilder("pkt-in:").Textf("reason=%d len=", reason).Expr(dataLen)
	packetFields(b, p)
	return b.Build()
}

// Trace is a path's complete output: the event list plus the crash flag.
type Trace struct {
	Events  []Event
	Crashed bool
}

// FromOutputs converts a symexec path output list (which agents fill with
// trace.Event values) into a Trace.
func FromOutputs(outputs []any, crashed bool) Trace {
	t := Trace{Crashed: crashed}
	for _, o := range outputs {
		switch ev := o.(type) {
		case Event:
			t.Events = append(t.Events, ev)
		default:
			t.Events = append(t.Events, NewBuilder("raw:").Textf("%v", o).Build())
		}
	}
	if crashed {
		t.Events = append(t.Events, Crash())
	}
	return t
}

// Canonical returns the normalized rendering of the whole trace; paths with
// equal canonical traces exhibited the same behavior.
func (t Trace) Canonical() string {
	if len(t.Events) == 0 {
		return "<silent>"
	}
	parts := make([]string, len(t.Events))
	for i, e := range t.Events {
		parts[i] = e.Canonical()
	}
	return strings.Join(parts, "\n")
}

// Template returns the structural shape of the whole trace.
func (t Trace) Template() string {
	if len(t.Events) == 0 {
		return "<silent>"
	}
	parts := make([]string, len(t.Events))
	for i, e := range t.Events {
		parts[i] = e.Template()
	}
	return strings.Join(parts, "\n")
}

// Exprs returns all embedded expressions of the trace in order.
func (t Trace) Exprs() []*sym.Expr {
	var out []*sym.Expr
	for _, e := range t.Events {
		out = append(out, e.exprs...)
	}
	return out
}
