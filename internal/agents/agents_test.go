// These tests pin each documented behavioral quirk (§5.1.2 of the paper)
// to the agent model responsible for it, using fully concrete inputs so
// every run is a single path whose trace is directly assertable.
package agents_test

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"github.com/soft-testing/soft/internal/agents"
	"github.com/soft-testing/soft/internal/agents/modified"
	"github.com/soft-testing/soft/internal/agents/ovs"
	"github.com/soft-testing/soft/internal/agents/refswitch"
	"github.com/soft-testing/soft/internal/dataplane"
	"github.com/soft-testing/soft/internal/openflow"
	"github.com/soft-testing/soft/internal/symbuf"
	"github.com/soft-testing/soft/internal/symexec"
	"github.com/soft-testing/soft/internal/trace"
)

// run drives one agent instance over concrete wire messages and/or probes
// and returns the single path's canonical trace.
func run(t *testing.T, a agents.Agent, msgs [][]byte, probes ...*dataplane.Packet) string {
	t.Helper()
	eng := &symexec.Engine{CovMap: a.CovMap()}
	res := eng.Run(func(ctx *symexec.Context) {
		in := a.NewInstance()
		in.Handshake(ctx)
		for _, m := range msgs {
			in.HandleMessage(ctx, symbuf.FromBytes(m))
		}
		for _, p := range probes {
			in.HandlePacket(ctx, p)
		}
	})
	if len(res.Paths) != 1 {
		t.Fatalf("concrete input explored %d paths, want 1", len(res.Paths))
	}
	p := res.Paths[0]
	return trace.FromOutputs(p.Outputs, p.Crashed).Canonical()
}

// The encoder below builds the concrete inputs. It writes the OpenFlow 1.0
// layouts at the spec's literal offsets, not at agents.Off*, so these tests
// also check the agents' parsers against an independent encoding.

// frame writes the ofp_header (version 1, xid 0) of an OpenFlow message of
// type typ over the first 8 bytes of msg and returns msg.
func frame(typ openflow.MsgType, msg []byte) []byte {
	msg[0] = 0x01
	msg[1] = byte(typ)
	binary.BigEndian.PutUint16(msg[2:4], uint16(len(msg)))
	return msg
}

// action8 encodes an 8-byte action whose argument starts at byte 4.
func action8(typ openflow.ActionType, arg ...byte) []byte {
	a := make([]byte, 8)
	binary.BigEndian.PutUint16(a[0:2], uint16(typ))
	binary.BigEndian.PutUint16(a[2:4], 8)
	copy(a[4:], arg)
	return a
}

// output encodes ofp_action_output (max_len 0).
func output(port uint16) []byte { return action8(openflow.ActOutput, byte(port>>8), byte(port)) }

func setVLANVID(vid uint16) []byte {
	return action8(openflow.ActSetVLANVID, byte(vid>>8), byte(vid))
}

func setNWTos(tos uint8) []byte { return action8(openflow.ActSetNWTos, tos) }

// packetOutMsg is an OFPT_PACKET_OUT carrying a 14-byte Ethernet frame.
type packetOutMsg struct {
	bufferID uint32
	inPort   uint16
	actions  [][]byte
}

func packetOut(actions ...[]byte) packetOutMsg {
	return packetOutMsg{bufferID: openflow.NoBuffer, inPort: 1, actions: actions}
}

func (m packetOutMsg) wire() []byte {
	acts := bytes.Join(m.actions, nil)
	b := make([]byte, 16, 16+len(acts)+14)
	binary.BigEndian.PutUint32(b[8:12], m.bufferID)
	binary.BigEndian.PutUint16(b[12:14], m.inPort)
	binary.BigEndian.PutUint16(b[14:16], uint16(len(acts)))
	b = append(b, acts...)
	b = append(b, 0, 0, 0, 0, 0, 0xaa, 0, 0, 0, 0, 0, 0xbb, 0x88, 0xb5)
	return frame(openflow.TypePacketOut, b)
}

// flowModMsg is an OFPT_FLOW_MOD whose match sets only wildcards and
// in_port; cookie and hard timeout are 0 and out_port is OFPP_NONE.
type flowModMsg struct {
	wildcards   uint32
	inPort      uint16
	command     openflow.FlowModCommand
	idleTimeout uint16
	priority    uint16
	bufferID    uint32
	flags       uint16
	actions     [][]byte
}

func flowModAdd(actions ...[]byte) flowModMsg {
	return flowModMsg{
		wildcards: openflow.FWAll,
		command:   openflow.FCAdd,
		priority:  0x8000,
		bufferID:  openflow.NoBuffer,
		actions:   actions,
	}
}

func (m flowModMsg) wire() []byte {
	acts := bytes.Join(m.actions, nil)
	b := make([]byte, 72, 72+len(acts))
	binary.BigEndian.PutUint32(b[8:12], m.wildcards)
	binary.BigEndian.PutUint16(b[12:14], m.inPort)
	binary.BigEndian.PutUint16(b[56:58], uint16(m.command))
	binary.BigEndian.PutUint16(b[58:60], m.idleTimeout)
	binary.BigEndian.PutUint16(b[62:64], m.priority)
	binary.BigEndian.PutUint32(b[64:68], m.bufferID)
	binary.BigEndian.PutUint16(b[68:70], openflow.PortNone)
	binary.BigEndian.PutUint16(b[70:72], m.flags)
	return frame(openflow.TypeFlowMod, append(b, acts...))
}

// statsRequest encodes an OFPT_STATS_REQUEST with an 8-byte zero body.
func statsRequest(typ openflow.StatsType) []byte {
	b := make([]byte, 20)
	binary.BigEndian.PutUint16(b[8:10], uint16(typ))
	return frame(openflow.TypeStatsRequest, b)
}

func queueGetConfigRequest(port uint16) []byte {
	b := make([]byte, 12)
	binary.BigEndian.PutUint16(b[8:10], port)
	return frame(openflow.TypeQueueGetConfigRequest, b)
}

func TestRefCrashOnPacketOutToController(t *testing.T) {
	got := run(t, refswitch.New(),
		[][]byte{packetOut(output(openflow.PortController)).wire()})
	if !strings.Contains(got, "crash") {
		t.Fatalf("ref must crash on Packet Out to OFPP_CONTROLLER, got %q", got)
	}
}

func TestOVSHandlesPacketOutToController(t *testing.T) {
	got := run(t, ovs.New(),
		[][]byte{packetOut(output(openflow.PortController)).wire()})
	if strings.Contains(got, "crash") {
		t.Fatalf("ovs must not crash: %q", got)
	}
	if !strings.Contains(got, "pkt-in") {
		t.Fatalf("ovs must encapsulate to the controller, got %q", got)
	}
}

func TestRefCrashOnSetVLANInPacketOut(t *testing.T) {
	got := run(t, refswitch.New(),
		[][]byte{packetOut(setVLANVID(5)).wire()})
	if !strings.Contains(got, "crash") {
		t.Fatalf("ref must crash on set_vlan_vid in Packet Out, got %q", got)
	}
}

func TestRefCrashOnQueueConfigPortZero(t *testing.T) {
	got := run(t, refswitch.New(),
		[][]byte{queueGetConfigRequest(0)})
	if !strings.Contains(got, "crash") {
		t.Fatalf("ref must crash on queue config for port 0, got %q", got)
	}
	got = run(t, ovs.New(), [][]byte{queueGetConfigRequest(0)})
	if !strings.Contains(got, "ERROR/QUEUE_OP_FAILED") {
		t.Fatalf("ovs must reject port 0 with an error, got %q", got)
	}
}

func TestBufferIDValidationOrder(t *testing.T) {
	// Packet Out with unknown buffer AND invalid output port: ref checks
	// the buffer first (and swallows the error — silence); OVS validates
	// actions first (error BAD_OUT_PORT). "Different order of message
	// validation" (§5.1.2).
	po := packetOut(output(77)) // 77 > ovs MaxPorts
	po.bufferID = 42
	ref := run(t, refswitch.New(), [][]byte{po.wire()})
	if ref != "<silent>" {
		t.Fatalf("ref must be silent (buffer checked first, error unpropagated), got %q", ref)
	}
	ov := run(t, ovs.New(), [][]byte{po.wire()})
	if !strings.Contains(ov, "ERROR/BAD_ACTION/4") {
		t.Fatalf("ovs must reject the port first, got %q", ov)
	}
}

func TestFlowModBufferBehavior(t *testing.T) {
	// Unknown buffer on Flow Mod: ref installs silently; OVS errors AND
	// installs ("Lack of error messages").
	fm := flowModAdd(output(2))
	fm.bufferID = 42
	probe := dataplane.TCPProbe(1)

	ref := run(t, refswitch.New(), [][]byte{fm.wire()}, probe)
	if strings.Contains(ref, "ERROR") {
		t.Fatalf("ref must not send an error, got %q", ref)
	}
	if !strings.Contains(ref, "pkt-out:port=") {
		t.Fatalf("ref must still install the flow (probe forwarded), got %q", ref)
	}

	ov := run(t, ovs.New(), [][]byte{fm.wire()}, probe)
	if !strings.Contains(ov, "ERROR/BAD_REQUEST/8") {
		t.Fatalf("ovs must report the unknown buffer, got %q", ov)
	}
	if !strings.Contains(ov, "pkt-out:port=") {
		t.Fatalf("ovs must install the flow anyway, got %q", ov)
	}
}

func TestVLANValidationStrictness(t *testing.T) {
	// set_vlan_vid 0x1fff via Flow Mod: ref auto-masks and forwards with
	// vlan 0xfff; OVS silently ignores the whole message ("Packet dropped
	// when action is invalid").
	fm := flowModAdd(
		setVLANVID(0x1fff),
		output(2),
	)
	probe := dataplane.TCPProbe(1)

	ref := run(t, refswitch.New(), [][]byte{fm.wire()}, probe)
	if !strings.Contains(ref, "vlan=0xfff") {
		t.Fatalf("ref must forward with the auto-masked vlan, got %q", ref)
	}
	ov := run(t, ovs.New(), [][]byte{fm.wire()}, probe)
	if !strings.Contains(ov, "pkt-in") {
		// The flow was never installed: the probe misses to the controller.
		t.Fatalf("ovs must silently ignore the flow mod (probe misses), got %q", ov)
	}
	// In range, both install.
	ok := flowModAdd(setVLANVID(100), output(2))
	ov = run(t, ovs.New(), [][]byte{ok.wire()}, probe)
	if !strings.Contains(ov, "vlan=0x64") {
		t.Fatalf("ovs must apply an in-range vlan raw, got %q", ov)
	}
}

func TestTosValidation(t *testing.T) {
	// ToS with low bits set: ref masks to 0xfc-aligned; OVS drops the mod.
	fm := flowModAdd(setNWTos(0x57), output(2))
	probe := dataplane.TCPProbe(1)
	ref := run(t, refswitch.New(), [][]byte{fm.wire()}, probe)
	if !strings.Contains(ref, "nw_tos=0x54") {
		t.Fatalf("ref must forward with tos&0xfc = 0x54, got %q", ref)
	}
	ov := run(t, ovs.New(), [][]byte{fm.wire()}, probe)
	if !strings.Contains(ov, "pkt-in") {
		t.Fatalf("ovs must silently drop the flow mod, got %q", ov)
	}
}

func TestInPortEqualsOutPort(t *testing.T) {
	// Flow whose output equals the match's in_port: ref rejects with an
	// error; OVS installs and drops matching packets ("Forwarding a packet
	// to an invalid port").
	fm := flowModAdd(output(1))
	fm.wildcards = openflow.FWAll &^ openflow.FWInPort
	fm.inPort = 1
	probe := dataplane.TCPProbe(1)

	ref := run(t, refswitch.New(), [][]byte{fm.wire()}, probe)
	if !strings.Contains(ref, "ERROR/BAD_ACTION/4") {
		t.Fatalf("ref must reject out==in_port, got %q", ref)
	}
	ov := run(t, ovs.New(), [][]byte{fm.wire()}, probe)
	if !strings.Contains(ov, "drop:output-to-ingress") {
		t.Fatalf("ovs must install and drop matching packets, got %q", ov)
	}
}

func TestPortRangeValidation(t *testing.T) {
	// Output to a high physical port: ref sends anyway (no max-port
	// validation); OVS errors.
	po := packetOut(output(500))
	ref := run(t, refswitch.New(), [][]byte{po.wire()})
	if !strings.Contains(ref, "pkt-out:port=0x1f4") {
		t.Fatalf("ref must emit to port 500, got %q", ref)
	}
	ov := run(t, ovs.New(), [][]byte{po.wire()})
	if !strings.Contains(ov, "ERROR/BAD_ACTION/4") {
		t.Fatalf("ovs must reject port 500, got %q", ov)
	}
}

func TestNormalPortSupport(t *testing.T) {
	// OFPP_NORMAL: missing feature on the reference switch side.
	po := packetOut(output(openflow.PortNormal))
	ref := run(t, refswitch.New(), [][]byte{po.wire()})
	if !strings.Contains(ref, "ERROR/BAD_ACTION") {
		t.Fatalf("ref must reject OFPP_NORMAL, got %q", ref)
	}
	ov := run(t, ovs.New(), [][]byte{po.wire()})
	if !strings.Contains(ov, "pkt-out:port=NORMAL") {
		t.Fatalf("ovs must bridge to the normal path, got %q", ov)
	}
}

func TestEmergencyFlowSupport(t *testing.T) {
	// Emergency entries: missing feature on the OVS side.
	fm := flowModAdd(output(2))
	fm.flags = openflow.FlagEmerg
	ref := run(t, refswitch.New(), [][]byte{fm.wire()})
	if strings.Contains(ref, "ERROR") {
		t.Fatalf("ref must accept emergency flows, got %q", ref)
	}
	ov := run(t, ovs.New(), [][]byte{fm.wire()})
	if !strings.Contains(ov, "ERROR/FLOW_MOD_FAILED/5") {
		t.Fatalf("ovs must reject emergency flows as unsupported, got %q", ov)
	}
	// Emergency with a non-zero timeout is invalid even on ref.
	bad := flowModAdd(output(2))
	bad.flags = openflow.FlagEmerg
	bad.idleTimeout = 10
	ref = run(t, refswitch.New(), [][]byte{bad.wire()})
	if !strings.Contains(ref, "ERROR/FLOW_MOD_FAILED/3") {
		t.Fatalf("ref must reject emergency timeouts, got %q", ref)
	}
}

func TestStatsSilentVsError(t *testing.T) {
	// Unknown stats type: ref silent, ovs errors ("Statistics requests
	// silently ignored").
	sr := statsRequest(openflow.StatsType(9))
	ref := run(t, refswitch.New(), [][]byte{sr})
	if ref != "<silent>" {
		t.Fatalf("ref must silently ignore unknown stats, got %q", ref)
	}
	ov := run(t, ovs.New(), [][]byte{sr})
	if !strings.Contains(ov, "ERROR/BAD_REQUEST/2") {
		t.Fatalf("ovs must reject unknown stats, got %q", ov)
	}
}

func TestEchoAndBarrier(t *testing.T) {
	for _, a := range []agents.Agent{refswitch.New(), ovs.New()} {
		got := run(t, a, [][]byte{
			frame(openflow.TypeEchoRequest, []byte{8: 'x'}),
			frame(openflow.TypeBarrierRequest, make([]byte, 8)),
		})
		if !strings.Contains(got, "ECHO_REPLY") || !strings.Contains(got, "BARRIER_REPLY") {
			t.Fatalf("%s: bad echo/barrier handling: %q", a.Name(), got)
		}
	}
}

func TestBadVersionRejected(t *testing.T) {
	wire := frame(openflow.TypeHello, make([]byte, 8))
	wire[0] = 0x04
	for _, a := range []agents.Agent{refswitch.New(), ovs.New()} {
		eng := &symexec.Engine{CovMap: a.CovMap()}
		res := eng.Run(func(ctx *symexec.Context) {
			in := a.NewInstance()
			in.Handshake(ctx)
			in.HandleMessage(ctx, symbuf.FromBytes(wire))
		})
		got := trace.FromOutputs(res.Paths[0].Outputs, res.Paths[0].Crashed).Canonical()
		if !strings.Contains(got, "ERROR/BAD_REQUEST/0") {
			t.Fatalf("%s: bad version must be rejected, got %q", a.Name(), got)
		}
	}
}

func TestFlowModDeleteRemovesEntry(t *testing.T) {
	add := flowModAdd(output(2))
	del := flowModAdd()
	del.command = openflow.FCDelete
	del.priority = 0
	probe := dataplane.TCPProbe(1)
	for _, a := range []agents.Agent{refswitch.New(), ovs.New()} {
		got := run(t, a, [][]byte{add.wire(), del.wire()}, probe)
		if !strings.Contains(got, "pkt-in") {
			t.Fatalf("%s: probe must miss after delete, got %q", a.Name(), got)
		}
	}
}

func TestFlowModModifyReplacesActions(t *testing.T) {
	add := flowModAdd(output(2))
	mod := flowModAdd(output(3))
	mod.command = openflow.FCModify
	probe := dataplane.TCPProbe(1)
	for _, a := range []agents.Agent{refswitch.New(), ovs.New()} {
		got := run(t, a, [][]byte{add.wire(), mod.wire()}, probe)
		if !strings.Contains(got, "pkt-out:port=0x3") {
			t.Fatalf("%s: modified flow must output to 3, got %q", a.Name(), got)
		}
	}
}

func TestCheckOverlapFlag(t *testing.T) {
	a1 := flowModAdd(output(2))
	a2 := flowModAdd(output(3))
	a2.flags = openflow.FlagCheckOverlap
	for _, a := range []agents.Agent{refswitch.New(), ovs.New()} {
		got := run(t, a, [][]byte{a1.wire(), a2.wire()})
		if !strings.Contains(got, "ERROR/FLOW_MOD_FAILED/1") {
			t.Fatalf("%s: overlapping add must fail, got %q", a.Name(), got)
		}
	}
}

func TestModifiedSwitchQuirks(t *testing.T) {
	mod := modified.New()
	// Flood rejection.
	got := run(t, mod, [][]byte{packetOut(output(openflow.PortFlood)).wire()})
	if !strings.Contains(got, "ERROR/BAD_ACTION") {
		t.Fatalf("modified switch must reject FLOOD, got %q", got)
	}
	// Port-zero error code change.
	got = run(t, mod, [][]byte{packetOut(output(0)).wire()})
	if !strings.Contains(got, "ERROR/BAD_ACTION/5") {
		t.Fatalf("modified switch must use BAD_ARGUMENT for port 0, got %q", got)
	}
	// High-priority adds silently dropped (visible via probe miss).
	fm := flowModAdd(output(2))
	fm.priority = 0xf800
	got = run(t, mod, [][]byte{fm.wire()}, dataplane.TCPProbe(1))
	if !strings.Contains(got, "pkt-in") {
		t.Fatalf("modified switch must drop the high-priority add, got %q", got)
	}
}

func TestModifiedIdleTimerQuirkInvisibleToSOFT(t *testing.T) {
	// The timer path exists and differs — but no SOFT test can drive it,
	// which is exactly why the paper's tool misses this modification.
	stock := refswitch.New()
	eng := &symexec.Engine{CovMap: stock.CovMap()}
	var removedStock, removedMod int
	eng.Run(func(ctx *symexec.Context) {
		in := stock.NewInstance().(interface {
			agents.Instance
			TickIdleTimeout(uint16) int
		})
		in.Handshake(ctx)
		fm := flowModAdd(output(2))
		fm.idleTimeout = 10
		in.HandleMessage(ctx, symbuf.FromBytes(fm.wire()))
		removedStock = in.TickIdleTimeout(9)
	})
	modSw := modified.New()
	eng2 := &symexec.Engine{CovMap: modSw.CovMap()}
	eng2.Run(func(ctx *symexec.Context) {
		in := modSw.NewInstance().(interface {
			agents.Instance
			TickIdleTimeout(uint16) int
		})
		in.Handshake(ctx)
		fm := flowModAdd(output(2))
		fm.idleTimeout = 10
		in.HandleMessage(ctx, symbuf.FromBytes(fm.wire()))
		removedMod = in.TickIdleTimeout(9)
	})
	if removedStock != 0 || removedMod != 1 {
		t.Fatalf("timer quirk: stock removed %d, modified removed %d (want 0 and 1)", removedStock, removedMod)
	}
}
