// Package dataplane models the packets an OpenFlow agent forwards. SOFT
// uses concrete packets as state probes (§3.3): after a potentially
// state-changing symbolic message, the harness injects a probe through the
// data plane interface, which exercises the agent's matching and
// action-application code and externalizes the (possibly symbolic) flow
// table state as observable output.
//
// A Packet carries its header fields as sym expressions: probe packets
// start fully concrete, but applying an action with a symbolic argument
// (e.g. set_vlan_vid from a symbolic Flow Mod) makes the corresponding
// field symbolic — the paper notes "the output data may even contain
// symbolic inputs" (§3.3). Concrete packets serialize to real Ethernet /
// 802.1q / IPv4 / TCP / UDP wire format; checksums are written as zero,
// matching the checksum-identity environment simplification of §4.1.
package dataplane

import (
	"encoding/binary"
	"fmt"
	"strings"

	"github.com/soft-testing/soft/internal/sym"
)

// EtherTypes understood by the match logic.
const (
	EtherTypeIPv4 uint64 = 0x0800
	EtherTypeARP  uint64 = 0x0806
	EtherTypeVLAN uint64 = 0x8100
)

// IP protocol numbers understood by the match logic.
const (
	ProtoICMP uint64 = 1
	ProtoTCP  uint64 = 6
	ProtoUDP  uint64 = 17
)

// VLANNone is the "no VLAN tag" sentinel (matches OpenFlow's OFP_VLAN_NONE).
const VLANNone uint64 = 0xffff

// Packet is a parsed packet with possibly-symbolic header fields. A nil
// field means "not present" (e.g. TPSrc on a non-TCP/UDP packet).
type Packet struct {
	InPort *sym.Expr // 16-bit ingress port (concrete for probes)

	EthDst *sym.Expr // 48
	EthSrc *sym.Expr // 48
	// VLAN is the 16-bit VLAN id field; VLANNone means untagged.
	VLAN *sym.Expr
	// PCP is the 8-bit (3 used) 802.1q priority; meaningful when tagged.
	PCP     *sym.Expr
	EthType *sym.Expr // 16

	NWSrc   *sym.Expr // 32, IPv4 only
	NWDst   *sym.Expr // 32
	NWTos   *sym.Expr // 8
	NWProto *sym.Expr // 8

	TPSrc *sym.Expr // 16, TCP/UDP ports or ICMP type/code
	TPDst *sym.Expr // 16

	Payload []byte // opaque payload (always concrete)
}

// TCPProbe builds the concrete TCP probe packet the Table 1 tests inject
// after state-changing messages.
func TCPProbe(inPort uint16) *Packet {
	return &Packet{
		InPort:  sym.Const(16, uint64(inPort)),
		EthDst:  sym.Const(48, 0x0000000000aa),
		EthSrc:  sym.Const(48, 0x0000000000bb),
		VLAN:    sym.Const(16, VLANNone),
		PCP:     sym.Const(8, 0),
		EthType: sym.Const(16, EtherTypeIPv4),
		NWSrc:   sym.Const(32, 0x0a000001), // 10.0.0.1
		NWDst:   sym.Const(32, 0x0a000002), // 10.0.0.2
		NWTos:   sym.Const(8, 0),
		NWProto: sym.Const(8, ProtoTCP),
		TPSrc:   sym.Const(16, 1000),
		TPDst:   sym.Const(16, 2000),
		Payload: []byte("probe"),
	}
}

// EthernetProbe builds the short non-IP probe used by the Eth FlowMod test.
func EthernetProbe(inPort uint16) *Packet {
	return &Packet{
		InPort:  sym.Const(16, uint64(inPort)),
		EthDst:  sym.Const(48, 0x0000000000aa),
		EthSrc:  sym.Const(48, 0x0000000000bb),
		VLAN:    sym.Const(16, VLANNone),
		PCP:     sym.Const(8, 0),
		EthType: sym.Const(16, 0x88b5), // experimental ethertype: L2 only
		Payload: []byte("eth-probe"),
	}
}

// SymbolicPacket builds a probe whose header fields are fresh symbolic
// variables named with the given prefix (the Table 5 "Symbolic Probe"
// ablation). newSym is typically the harness.NewSymFn a test's input
// builder receives.
func SymbolicPacket(newSym func(name string, w int) *sym.Expr, prefix string, inPort uint16) *Packet {
	return &Packet{
		InPort:  sym.Const(16, uint64(inPort)),
		EthDst:  newSym(prefix+".dl_dst", 48),
		EthSrc:  newSym(prefix+".dl_src", 48),
		VLAN:    sym.Const(16, VLANNone),
		PCP:     sym.Const(8, 0),
		EthType: newSym(prefix+".dl_type", 16),
		NWSrc:   newSym(prefix+".nw_src", 32),
		NWDst:   newSym(prefix+".nw_dst", 32),
		NWTos:   newSym(prefix+".nw_tos", 8),
		NWProto: newSym(prefix+".nw_proto", 8),
		TPSrc:   newSym(prefix+".tp_src", 16),
		TPDst:   newSym(prefix+".tp_dst", 16),
	}
}

// Clone returns a shallow copy (expression nodes are immutable; Payload is
// shared, which is safe because no action rewrites payloads).
func (p *Packet) Clone() *Packet {
	q := *p
	return &q
}

// HasVLANTag returns the boolean expression "packet carries a VLAN tag".
func (p *Packet) HasVLANTag() *sym.Expr {
	if p.VLAN == nil {
		return sym.Bool(false)
	}
	return sym.Ne(p.VLAN, sym.Const(16, VLANNone))
}

// IsIPv4 returns the boolean expression "packet is IPv4".
func (p *Packet) IsIPv4() *sym.Expr {
	if p.EthType == nil || p.NWSrc == nil {
		return sym.Bool(false)
	}
	return sym.EqConst(p.EthType, EtherTypeIPv4)
}

// fieldOrZero returns f, or a zero constant of width w when the field is
// absent — OpenFlow 1.0 matches absent fields as zero.
func fieldOrZero(f *sym.Expr, w int) *sym.Expr {
	if f == nil {
		return sym.Const(w, 0)
	}
	return f
}

// MatchField accessors with OpenFlow "absent = 0" semantics.

// MatchInPort returns the ingress port field for matching.
func (p *Packet) MatchInPort() *sym.Expr { return fieldOrZero(p.InPort, 16) }

// MatchDLSrc returns the Ethernet source for matching.
func (p *Packet) MatchDLSrc() *sym.Expr { return fieldOrZero(p.EthSrc, 48) }

// MatchDLDst returns the Ethernet destination for matching.
func (p *Packet) MatchDLDst() *sym.Expr { return fieldOrZero(p.EthDst, 48) }

// MatchDLVLAN returns the VLAN id for matching (VLANNone when untagged).
func (p *Packet) MatchDLVLAN() *sym.Expr {
	if p.VLAN == nil {
		return sym.Const(16, VLANNone)
	}
	return p.VLAN
}

// MatchDLVLANPCP returns the 802.1q priority for matching.
func (p *Packet) MatchDLVLANPCP() *sym.Expr { return fieldOrZero(p.PCP, 8) }

// MatchDLType returns the Ethernet type for matching.
func (p *Packet) MatchDLType() *sym.Expr { return fieldOrZero(p.EthType, 16) }

// MatchNWSrc returns the IPv4 source for matching.
func (p *Packet) MatchNWSrc() *sym.Expr { return fieldOrZero(p.NWSrc, 32) }

// MatchNWDst returns the IPv4 destination for matching.
func (p *Packet) MatchNWDst() *sym.Expr { return fieldOrZero(p.NWDst, 32) }

// MatchNWTos returns the IP ToS for matching.
func (p *Packet) MatchNWTos() *sym.Expr { return fieldOrZero(p.NWTos, 8) }

// MatchNWProto returns the IP protocol for matching.
func (p *Packet) MatchNWProto() *sym.Expr { return fieldOrZero(p.NWProto, 8) }

// MatchTPSrc returns the transport source port for matching.
func (p *Packet) MatchTPSrc() *sym.Expr { return fieldOrZero(p.TPSrc, 16) }

// MatchTPDst returns the transport destination port for matching.
func (p *Packet) MatchTPDst() *sym.Expr { return fieldOrZero(p.TPDst, 16) }

// CanonicalString renders the packet for output traces: a deterministic,
// field-by-field rendering in which symbolic fields appear as canonical
// expression strings. Two agents that emit semantically identical packets
// over the same symbolic inputs render identically.
func (p *Packet) CanonicalString() string {
	var b strings.Builder
	b.WriteString("pkt{")
	wr := func(name string, e *sym.Expr) {
		if e == nil {
			return
		}
		fmt.Fprintf(&b, "%s=%s ", name, exprStr(e))
	}
	wr("dl_dst", p.EthDst)
	wr("dl_src", p.EthSrc)
	wr("vlan", p.VLAN)
	wr("pcp", p.PCP)
	wr("dl_type", p.EthType)
	wr("nw_src", p.NWSrc)
	wr("nw_dst", p.NWDst)
	wr("nw_tos", p.NWTos)
	wr("nw_proto", p.NWProto)
	wr("tp_src", p.TPSrc)
	wr("tp_dst", p.TPDst)
	fmt.Fprintf(&b, "payload=%x}", p.Payload)
	return b.String()
}

func exprStr(e *sym.Expr) string {
	if v, ok := e.ConstVal(); ok {
		return fmt.Sprintf("%#x", v)
	}
	return e.String()
}

// IsConcrete reports whether every present field is a constant.
func (p *Packet) IsConcrete() bool {
	for _, e := range []*sym.Expr{p.InPort, p.EthDst, p.EthSrc, p.VLAN, p.PCP,
		p.EthType, p.NWSrc, p.NWDst, p.NWTos, p.NWProto, p.TPSrc, p.TPDst} {
		if e != nil && !e.IsConst() {
			return false
		}
	}
	return true
}

// Serialize renders the packet to wire bytes under the model σ (pass nil
// for a fully concrete packet). Layout: Ethernet II, optional 802.1q tag,
// IPv4 (no options), TCP/UDP/ICMP stub headers. Checksums are zero.
func (p *Packet) Serialize(σ sym.Assignment) []byte {
	var eval sym.Evaluator
	ev := func(e *sym.Expr) uint64 {
		if e == nil {
			return 0
		}
		return eval.Eval(e, σ)
	}
	out := make([]byte, 0, 64)
	var mac [8]byte
	binary.BigEndian.PutUint64(mac[:], ev(p.EthDst)<<16)
	out = append(out, mac[:6]...)
	binary.BigEndian.PutUint64(mac[:], ev(p.EthSrc)<<16)
	out = append(out, mac[:6]...)

	vlan := ev(p.VLAN)
	if p.VLAN != nil && vlan != VLANNone {
		tci := (ev(p.PCP)&0x7)<<13 | vlan&0x0fff
		out = append(out, 0x81, 0x00, byte(tci>>8), byte(tci))
	}
	ethType := ev(p.EthType)
	out = append(out, byte(ethType>>8), byte(ethType))

	if ethType == EtherTypeIPv4 && p.NWSrc != nil {
		ip := make([]byte, 20)
		ip[0] = 0x45
		ip[1] = byte(ev(p.NWTos))
		totalLen := 20 + transportLen(ev(p.NWProto)) + len(p.Payload)
		binary.BigEndian.PutUint16(ip[2:4], uint16(totalLen))
		ip[8] = 64 // TTL
		ip[9] = byte(ev(p.NWProto))
		// Checksum (ip[10:12]) stays zero: §4.1 checksum simplification.
		binary.BigEndian.PutUint32(ip[12:16], uint32(ev(p.NWSrc)))
		binary.BigEndian.PutUint32(ip[16:20], uint32(ev(p.NWDst)))
		out = append(out, ip...)

		switch ev(p.NWProto) {
		case ProtoTCP:
			tcp := make([]byte, 20)
			binary.BigEndian.PutUint16(tcp[0:2], uint16(ev(p.TPSrc)))
			binary.BigEndian.PutUint16(tcp[2:4], uint16(ev(p.TPDst)))
			tcp[12] = 5 << 4 // data offset
			out = append(out, tcp...)
		case ProtoUDP:
			udp := make([]byte, 8)
			binary.BigEndian.PutUint16(udp[0:2], uint16(ev(p.TPSrc)))
			binary.BigEndian.PutUint16(udp[2:4], uint16(ev(p.TPDst)))
			binary.BigEndian.PutUint16(udp[4:6], uint16(8+len(p.Payload)))
			out = append(out, udp...)
		case ProtoICMP:
			icmp := make([]byte, 4)
			icmp[0] = byte(ev(p.TPSrc))
			icmp[1] = byte(ev(p.TPDst))
			out = append(out, icmp...)
		}
	}
	return append(out, p.Payload...)
}

func transportLen(proto uint64) int {
	switch proto {
	case ProtoTCP:
		return 20
	case ProtoUDP:
		return 8
	case ProtoICMP:
		return 4
	}
	return 0
}

// Parse decodes a concrete wire packet produced by Serialize (or any
// Ethernet/IPv4/TCP frame) back into a Packet with constant fields.
func Parse(inPort uint16, wire []byte) (*Packet, error) {
	if len(wire) < 14 {
		return nil, fmt.Errorf("dataplane: frame too short (%d bytes)", len(wire))
	}
	p := &Packet{InPort: sym.Const(16, uint64(inPort))}
	p.EthDst = sym.Const(48, beUint(wire[0:6]))
	p.EthSrc = sym.Const(48, beUint(wire[6:12]))
	off := 12
	ethType := uint64(binary.BigEndian.Uint16(wire[off : off+2]))
	p.VLAN = sym.Const(16, VLANNone)
	p.PCP = sym.Const(8, 0)
	if ethType == EtherTypeVLAN {
		if len(wire) < 18 {
			return nil, fmt.Errorf("dataplane: truncated VLAN tag")
		}
		tci := binary.BigEndian.Uint16(wire[off+2 : off+4])
		p.VLAN = sym.Const(16, uint64(tci&0x0fff))
		p.PCP = sym.Const(8, uint64(tci>>13))
		off += 4
		ethType = uint64(binary.BigEndian.Uint16(wire[off : off+2]))
	}
	p.EthType = sym.Const(16, ethType)
	off += 2
	if ethType == EtherTypeIPv4 && len(wire) >= off+20 {
		ip := wire[off:]
		ihl := int(ip[0]&0xf) * 4
		p.NWTos = sym.Const(8, uint64(ip[1]))
		p.NWProto = sym.Const(8, uint64(ip[9]))
		p.NWSrc = sym.Const(32, uint64(binary.BigEndian.Uint32(ip[12:16])))
		p.NWDst = sym.Const(32, uint64(binary.BigEndian.Uint32(ip[16:20])))
		off += ihl
		proto := uint64(ip[9])
		if (proto == ProtoTCP || proto == ProtoUDP) && len(wire) >= off+4 {
			p.TPSrc = sym.Const(16, uint64(binary.BigEndian.Uint16(wire[off:off+2])))
			p.TPDst = sym.Const(16, uint64(binary.BigEndian.Uint16(wire[off+2:off+4])))
			off += transportLen(proto)
		} else if proto == ProtoICMP && len(wire) >= off+4 {
			p.TPSrc = sym.Const(16, uint64(wire[off]))
			p.TPDst = sym.Const(16, uint64(wire[off+1]))
			off += 4
		}
	}
	if off <= len(wire) {
		p.Payload = append([]byte(nil), wire[off:]...)
	}
	return p, nil
}

func beUint(b []byte) uint64 {
	var v uint64
	for _, x := range b {
		v = v<<8 | uint64(x)
	}
	return v
}
