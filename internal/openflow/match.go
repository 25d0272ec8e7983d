package openflow

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// MatchLen is the wire length of ofp_match.
const MatchLen = 40

// Match is the OpenFlow 1.0 flow match structure (ofp_match). Fields whose
// wildcard bit is set are ignored during matching.
type Match struct {
	Wildcards uint32
	InPort    uint16
	DLSrc     [6]byte
	DLDst     [6]byte
	DLVLAN    uint16
	DLVLANPCP uint8
	DLType    uint16
	NWTos     uint8
	NWProto   uint8
	NWSrc     uint32
	NWDst     uint32
	TPSrc     uint16
	TPDst     uint16
}

// MatchAll returns a fully wildcarded match.
func MatchAll() Match { return Match{Wildcards: FWAll} }

// DecodeFromBytes parses an ofp_match from the first MatchLen bytes of b.
func (m *Match) DecodeFromBytes(b []byte) error {
	if len(b) < MatchLen {
		return fmt.Errorf("openflow: match needs %d bytes, have %d", MatchLen, len(b))
	}
	m.Wildcards = binary.BigEndian.Uint32(b[0:4])
	m.InPort = binary.BigEndian.Uint16(b[4:6])
	copy(m.DLSrc[:], b[6:12])
	copy(m.DLDst[:], b[12:18])
	m.DLVLAN = binary.BigEndian.Uint16(b[18:20])
	m.DLVLANPCP = b[20]
	// b[21] pad
	m.DLType = binary.BigEndian.Uint16(b[22:24])
	m.NWTos = b[24]
	m.NWProto = b[25]
	// b[26:28] pad
	m.NWSrc = binary.BigEndian.Uint32(b[28:32])
	m.NWDst = binary.BigEndian.Uint32(b[32:36])
	m.TPSrc = binary.BigEndian.Uint16(b[36:38])
	m.TPDst = binary.BigEndian.Uint16(b[38:40])
	return nil
}

// SerializeTo appends the wire form of m to dst and returns the result.
func (m *Match) SerializeTo(dst []byte) []byte {
	var b [MatchLen]byte
	binary.BigEndian.PutUint32(b[0:4], m.Wildcards)
	binary.BigEndian.PutUint16(b[4:6], m.InPort)
	copy(b[6:12], m.DLSrc[:])
	copy(b[12:18], m.DLDst[:])
	binary.BigEndian.PutUint16(b[18:20], m.DLVLAN)
	b[20] = m.DLVLANPCP
	binary.BigEndian.PutUint16(b[22:24], m.DLType)
	b[24] = m.NWTos
	b[25] = m.NWProto
	binary.BigEndian.PutUint32(b[28:32], m.NWSrc)
	binary.BigEndian.PutUint32(b[32:36], m.NWDst)
	binary.BigEndian.PutUint16(b[36:38], m.TPSrc)
	binary.BigEndian.PutUint16(b[38:40], m.TPDst)
	return append(dst, b[:]...)
}

// NWSrcWildBits returns how many low bits of NWSrc are wildcarded (>= 32
// means the field is fully ignored).
func (m *Match) NWSrcWildBits() uint32 {
	return (m.Wildcards & FWNWSrcMask) >> FWNWSrcShift
}

// NWDstWildBits returns how many low bits of NWDst are wildcarded.
func (m *Match) NWDstWildBits() uint32 {
	return (m.Wildcards & FWNWDstMask) >> FWNWDstShift
}

// Subsumes reports whether every packet matching n also matches m (m is
// equal or more general). Used for DELETE (non-strict) semantics.
func (m *Match) Subsumes(n *Match) bool {
	if m.Wildcards&FWInPort == 0 {
		if n.Wildcards&FWInPort != 0 || m.InPort != n.InPort {
			return false
		}
	}
	if m.Wildcards&FWDLSrc == 0 {
		if n.Wildcards&FWDLSrc != 0 || m.DLSrc != n.DLSrc {
			return false
		}
	}
	if m.Wildcards&FWDLDst == 0 {
		if n.Wildcards&FWDLDst != 0 || m.DLDst != n.DLDst {
			return false
		}
	}
	if m.Wildcards&FWDLVLAN == 0 {
		if n.Wildcards&FWDLVLAN != 0 || m.DLVLAN != n.DLVLAN {
			return false
		}
	}
	if m.Wildcards&FWDLVLANPCP == 0 {
		if n.Wildcards&FWDLVLANPCP != 0 || m.DLVLANPCP != n.DLVLANPCP {
			return false
		}
	}
	if m.Wildcards&FWDLType == 0 {
		if n.Wildcards&FWDLType != 0 || m.DLType != n.DLType {
			return false
		}
	}
	if m.Wildcards&FWNWTos == 0 {
		if n.Wildcards&FWNWTos != 0 || m.NWTos != n.NWTos {
			return false
		}
	}
	if m.Wildcards&FWNWProto == 0 {
		if n.Wildcards&FWNWProto != 0 || m.NWProto != n.NWProto {
			return false
		}
	}
	if m.Wildcards&FWTPSrc == 0 {
		if n.Wildcards&FWTPSrc != 0 || m.TPSrc != n.TPSrc {
			return false
		}
	}
	if m.Wildcards&FWTPDst == 0 {
		if n.Wildcards&FWTPDst != 0 || m.TPDst != n.TPDst {
			return false
		}
	}
	mb, nb := m.NWSrcWildBits(), n.NWSrcWildBits()
	if mb < 32 {
		if nb > mb {
			return false
		}
		if mb < 32 && (m.NWSrc>>mb) != (n.NWSrc>>mb) {
			return false
		}
	}
	mb, nb = m.NWDstWildBits(), n.NWDstWildBits()
	if mb < 32 {
		if nb > mb {
			return false
		}
		if mb < 32 && (m.NWDst>>mb) != (n.NWDst>>mb) {
			return false
		}
	}
	return true
}

// Equals reports whether two matches are identical including wildcards
// (strict flow-mod semantics compare matches this way, plus priority).
func (m *Match) Equals(n *Match) bool {
	normWild := func(w uint32) uint32 {
		// Clamp the address wildcard fields at 32: 32..63 all mean "fully
		// wildcarded" on the wire.
		if (w&FWNWSrcMask)>>FWNWSrcShift > 32 {
			w = (w &^ FWNWSrcMask) | FWNWSrcAll
		}
		if (w&FWNWDstMask)>>FWNWDstShift > 32 {
			w = (w &^ FWNWDstMask) | FWNWDstAll
		}
		return w & FWAll
	}
	return normWild(m.Wildcards) == normWild(n.Wildcards) &&
		(m.Wildcards&FWInPort != 0 || m.InPort == n.InPort) &&
		(m.Wildcards&FWDLSrc != 0 || m.DLSrc == n.DLSrc) &&
		(m.Wildcards&FWDLDst != 0 || m.DLDst == n.DLDst) &&
		(m.Wildcards&FWDLVLAN != 0 || m.DLVLAN == n.DLVLAN) &&
		(m.Wildcards&FWDLVLANPCP != 0 || m.DLVLANPCP == n.DLVLANPCP) &&
		(m.Wildcards&FWDLType != 0 || m.DLType == n.DLType) &&
		(m.Wildcards&FWNWTos != 0 || m.NWTos == n.NWTos) &&
		(m.Wildcards&FWNWProto != 0 || m.NWProto == n.NWProto) &&
		(m.Wildcards&FWTPSrc != 0 || m.TPSrc == n.TPSrc) &&
		(m.Wildcards&FWTPDst != 0 || m.TPDst == n.TPDst) &&
		(m.NWSrcWildBits() >= 32 || m.NWSrc>>m.NWSrcWildBits() == n.NWSrc>>m.NWSrcWildBits()) &&
		(m.NWDstWildBits() >= 32 || m.NWDst>>m.NWDstWildBits() == n.NWDst>>m.NWDstWildBits())
}

// String renders the non-wildcarded fields.
func (m *Match) String() string {
	if m.Wildcards&FWAll == FWAll {
		return "match{*}"
	}
	var parts []string
	add := func(bit uint32, s string) {
		if m.Wildcards&bit == 0 {
			parts = append(parts, s)
		}
	}
	add(FWInPort, fmt.Sprintf("in_port=%d", m.InPort))
	add(FWDLSrc, fmt.Sprintf("dl_src=%x", m.DLSrc))
	add(FWDLDst, fmt.Sprintf("dl_dst=%x", m.DLDst))
	add(FWDLVLAN, fmt.Sprintf("dl_vlan=%d", m.DLVLAN))
	add(FWDLVLANPCP, fmt.Sprintf("dl_vlan_pcp=%d", m.DLVLANPCP))
	add(FWDLType, fmt.Sprintf("dl_type=%#x", m.DLType))
	add(FWNWTos, fmt.Sprintf("nw_tos=%d", m.NWTos))
	add(FWNWProto, fmt.Sprintf("nw_proto=%d", m.NWProto))
	if b := m.NWSrcWildBits(); b < 32 {
		parts = append(parts, fmt.Sprintf("nw_src=%#x/%d", m.NWSrc, 32-b))
	}
	if b := m.NWDstWildBits(); b < 32 {
		parts = append(parts, fmt.Sprintf("nw_dst=%#x/%d", m.NWDst, 32-b))
	}
	add(FWTPSrc, fmt.Sprintf("tp_src=%d", m.TPSrc))
	add(FWTPDst, fmt.Sprintf("tp_dst=%d", m.TPDst))
	return "match{" + strings.Join(parts, ",") + "}"
}
