package trace

import (
	"strings"
	"testing"

	"github.com/soft-testing/soft/internal/dataplane"
	"github.com/soft-testing/soft/internal/openflow"
	"github.com/soft-testing/soft/internal/sym"
)

func TestErrorEventCanonical(t *testing.T) {
	e := Error(openflow.ErrBadAction, openflow.BACBadOutPort)
	if got := e.Canonical(); got != "msg:ERROR/BAD_ACTION/4" {
		t.Fatalf("canonical %q", got)
	}
	if len(e.Exprs()) != 0 {
		t.Fatal("error events carry no expressions")
	}
}

func TestPacketOutEvent(t *testing.T) {
	p := dataplane.TCPProbe(1)
	port := sym.Var("po.port", 16)
	e := PacketOut(port, p)
	c := e.Canonical()
	if !strings.Contains(c, "port=(var po.port 16)") {
		t.Fatalf("canonical missing symbolic port: %s", c)
	}
	if !strings.Contains(c, "tp_dst=0x7d0") {
		t.Fatalf("canonical missing concrete field: %s", c)
	}
	// Template elides every value.
	if strings.Contains(e.Template(), "po.port") || strings.Contains(e.Template(), "0x7d0") {
		t.Fatalf("template leaks values: %s", e.Template())
	}
	// Reserved concrete ports render as names in the template.
	flood := PacketOut(sym.Const(16, uint64(openflow.PortFlood)), p)
	if !strings.Contains(flood.Template(), "port=FLOOD") {
		t.Fatalf("reserved port not named: %s", flood.Template())
	}
}

func TestTraceCanonicalStability(t *testing.T) {
	mk := func() Trace {
		p := dataplane.TCPProbe(2)
		return FromOutputs([]any{
			PacketOut(sym.Const(16, 3), p),
			Error(openflow.ErrBadRequest, openflow.BRCBadLen),
		}, false)
	}
	if mk().Canonical() != mk().Canonical() {
		t.Fatal("canonical trace not deterministic")
	}
}

func TestSilentTrace(t *testing.T) {
	tr := FromOutputs(nil, false)
	if tr.Canonical() != "<silent>" {
		t.Fatalf("empty trace renders %q", tr.Canonical())
	}
}

func TestCrashAppended(t *testing.T) {
	tr := FromOutputs(nil, true)
	if tr.Canonical() != "crash" {
		t.Fatalf("crash trace renders %q", tr.Canonical())
	}
}

func TestPacketInEvent(t *testing.T) {
	p := dataplane.TCPProbe(1)
	msl := sym.Var("cfg.miss_send_len", 16)
	e := PacketIn(openflow.ReasonNoMatch, msl, p)
	if !strings.Contains(e.Canonical(), "reason=0 len=(var cfg.miss_send_len 16)") {
		t.Fatalf("canonical %s", e.Canonical())
	}
}

func TestMsgEvent(t *testing.T) {
	e := Msg(openflow.TypeBarrierReply)
	if e.Canonical() != "msg:BARRIER_REPLY" {
		t.Fatalf("canonical %q", e.Canonical())
	}
}

func TestRawOutputTolerated(t *testing.T) {
	tr := FromOutputs([]any{42}, false)
	if tr.Canonical() != "raw:42" {
		t.Fatalf("raw output renders %q", tr.Canonical())
	}
}

func TestBuilderSegments(t *testing.T) {
	e := NewBuilder("k:").Text("a=").Expr(sym.Const(8, 5)).Text(" b=").Expr(sym.Var("v", 8)).Build()
	if got := e.Canonical(); got != "k:a=0x5 b=(var v 8)" {
		t.Fatalf("canonical %q", got)
	}
	if got := e.Template(); got != "k:a=⟨⟩ b=⟨⟩" {
		t.Fatalf("template %q", got)
	}
	if len(e.Exprs()) != 2 {
		t.Fatalf("exprs %v", e.Exprs())
	}
}
