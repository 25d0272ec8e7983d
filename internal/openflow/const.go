// Package openflow holds the OpenFlow 1.0 protocol vocabulary: message,
// action, error and statistics type codes with their names, reserved
// ports, flag and wildcard bits, and the fixed wire lengths of the
// messages the harness builds.
//
// SOFT tests agents "at the interface level" (§2.2). The harness builds
// every input as a symbolic symbuf buffer and the agents parse those
// buffers field by field, so nothing here encodes or decodes a concrete
// message: both sides share only these constants. The values follow the
// OpenFlow Switch Specification version 1.0.0, the revision both the
// Reference Switch and Open vSwitch 1.0.0 in the paper implement.
package openflow

// Version is the protocol version this package implements (OpenFlow 1.0).
const Version = 0x01

// Fixed wire lengths (the parts before any variable-length action list
// or body).
const (
	// HeaderLen is the length of the common ofp_header.
	HeaderLen = 8
	// MatchLen is the length of ofp_match.
	MatchLen = 40
	// SetConfigLen is the length of OFPT_SET_CONFIG.
	SetConfigLen = HeaderLen + 4
	// PacketOutFixedLen is the length of OFPT_PACKET_OUT up to the action
	// list.
	PacketOutFixedLen = HeaderLen + 8
	// FlowModFixedLen is the length of OFPT_FLOW_MOD up to the action list.
	FlowModFixedLen = HeaderLen + MatchLen + 24
	// StatsRequestFixedLen is the length of OFPT_STATS_REQUEST up to the
	// body.
	StatsRequestFixedLen = HeaderLen + 4
	// QueueGetConfigRequestLen is the length of
	// OFPT_QUEUE_GET_CONFIG_REQUEST.
	QueueGetConfigRequestLen = HeaderLen + 4
)

// MsgType enumerates the OpenFlow 1.0 message types (ofp_type).
type MsgType uint8

// OpenFlow 1.0 message types.
const (
	TypeHello MsgType = iota
	TypeError
	TypeEchoRequest
	TypeEchoReply
	TypeVendor
	TypeFeaturesRequest
	TypeFeaturesReply
	TypeGetConfigRequest
	TypeGetConfigReply
	TypeSetConfig
	TypePacketIn
	TypeFlowRemoved
	TypePortStatus
	TypePacketOut
	TypeFlowMod
	TypePortMod
	TypeStatsRequest
	TypeStatsReply
	TypeBarrierRequest
	TypeBarrierReply
	TypeQueueGetConfigRequest
	TypeQueueGetConfigReply

	// NumTypes is the count of valid message type codes ("at present about
	// 20 codes exist" — §3.2.1; exactly 22 in OpenFlow 1.0).
	NumTypes = 22
)

var msgTypeNames = [...]string{
	"HELLO", "ERROR", "ECHO_REQUEST", "ECHO_REPLY", "VENDOR",
	"FEATURES_REQUEST", "FEATURES_REPLY", "GET_CONFIG_REQUEST",
	"GET_CONFIG_REPLY", "SET_CONFIG", "PACKET_IN", "FLOW_REMOVED",
	"PORT_STATUS", "PACKET_OUT", "FLOW_MOD", "PORT_MOD", "STATS_REQUEST",
	"STATS_REPLY", "BARRIER_REQUEST", "BARRIER_REPLY",
	"QUEUE_GET_CONFIG_REQUEST", "QUEUE_GET_CONFIG_REPLY",
}

func (t MsgType) String() string {
	if int(t) < len(msgTypeNames) {
		return msgTypeNames[t]
	}
	return "UNKNOWN"
}

// Reserved port numbers (ofp_port). Ports are 16-bit in OpenFlow 1.0.
const (
	// PortMax is the maximum number of physical switch ports.
	PortMax uint16 = 0xff00
	// PortInPort sends the packet back out its input port; it must be
	// explicitly used when the output equals the ingress port (§5.1.2,
	// footnote 4).
	PortInPort uint16 = 0xfff8
	// PortTable performs actions in the flow table (Packet Out only).
	PortTable uint16 = 0xfff9
	// PortNormal processes with traditional (non-OpenFlow) forwarding.
	PortNormal uint16 = 0xfffa
	// PortFlood floods along the minimum spanning tree.
	PortFlood uint16 = 0xfffb
	// PortAll sends out all physical ports except the input port.
	PortAll uint16 = 0xfffc
	// PortController encapsulates and sends to the controller.
	PortController uint16 = 0xfffd
	// PortLocal targets the local networking stack.
	PortLocal uint16 = 0xfffe
	// PortNone is "no port" (used in flow_mod out_port to mean any).
	PortNone uint16 = 0xffff
)

// PortName names the reserved ports for trace rendering.
func PortName(p uint16) string {
	switch p {
	case PortInPort:
		return "IN_PORT"
	case PortTable:
		return "TABLE"
	case PortNormal:
		return "NORMAL"
	case PortFlood:
		return "FLOOD"
	case PortAll:
		return "ALL"
	case PortController:
		return "CONTROLLER"
	case PortLocal:
		return "LOCAL"
	case PortNone:
		return "NONE"
	}
	return ""
}

// ActionType enumerates ofp_action_type.
type ActionType uint16

// OpenFlow 1.0 action types.
const (
	ActOutput ActionType = iota
	ActSetVLANVID
	ActSetVLANPCP
	ActStripVLAN
	ActSetDLSrc
	ActSetDLDst
	ActSetNWSrc
	ActSetNWDst
	ActSetNWTos
	ActSetTPSrc
	ActSetTPDst
	ActEnqueue
	// NumActionTypes counts the standard action codes (vendor excluded).
	NumActionTypes

	ActVendor ActionType = 0xffff
)

var actionNames = [...]string{
	"OUTPUT", "SET_VLAN_VID", "SET_VLAN_PCP", "STRIP_VLAN", "SET_DL_SRC",
	"SET_DL_DST", "SET_NW_SRC", "SET_NW_DST", "SET_NW_TOS", "SET_TP_SRC",
	"SET_TP_DST", "ENQUEUE",
}

func (t ActionType) String() string {
	if int(t) < len(actionNames) {
		return actionNames[t]
	}
	if t == ActVendor {
		return "VENDOR"
	}
	return "UNKNOWN_ACTION"
}

// FlowModCommand enumerates ofp_flow_mod_command.
type FlowModCommand uint16

// Flow table modification commands.
const (
	FCAdd FlowModCommand = iota
	FCModify
	FCModifyStrict
	FCDelete
	FCDeleteStrict
	NumFlowModCommands
)

func (c FlowModCommand) String() string {
	names := [...]string{"ADD", "MODIFY", "MODIFY_STRICT", "DELETE", "DELETE_STRICT"}
	if int(c) < len(names) {
		return names[c]
	}
	return "BAD_COMMAND"
}

// Flow mod flags (ofp_flow_mod_flags).
const (
	FlagSendFlowRem  uint16 = 1 << 0
	FlagCheckOverlap uint16 = 1 << 1
	FlagEmerg        uint16 = 1 << 2
)

// Wildcard flags (ofp_flow_wildcards). NWSrc/NWDst occupy 6-bit fields
// counting wildcarded low bits of the address; value >= 32 wildcards all.
const (
	FWInPort  uint32 = 1 << 0
	FWDLVLAN  uint32 = 1 << 1
	FWDLSrc   uint32 = 1 << 2
	FWDLDst   uint32 = 1 << 3
	FWDLType  uint32 = 1 << 4
	FWNWProto uint32 = 1 << 5
	FWTPSrc   uint32 = 1 << 6
	FWTPDst   uint32 = 1 << 7

	FWNWSrcShift uint32 = 8
	FWNWSrcMask  uint32 = 0x3f << FWNWSrcShift
	FWNWSrcAll   uint32 = 32 << FWNWSrcShift
	FWNWDstShift uint32 = 14
	FWNWDstMask  uint32 = 0x3f << FWNWDstShift
	FWNWDstAll   uint32 = 32 << FWNWDstShift

	FWDLVLANPCP uint32 = 1 << 20
	FWNWTos     uint32 = 1 << 21

	FWAll uint32 = (1 << 22) - 1
)

// ErrType enumerates ofp_error_type.
type ErrType uint16

// Error message types.
const (
	ErrHelloFailed ErrType = iota
	ErrBadRequest
	ErrBadAction
	ErrFlowModFailed
	ErrPortModFailed
	ErrQueueOpFailed
)

func (t ErrType) String() string {
	names := [...]string{"HELLO_FAILED", "BAD_REQUEST", "BAD_ACTION",
		"FLOW_MOD_FAILED", "PORT_MOD_FAILED", "QUEUE_OP_FAILED"}
	if int(t) < len(names) {
		return names[t]
	}
	return "UNKNOWN_ERROR_TYPE"
}

// ofp_bad_request_code values.
const (
	BRCBadVersion uint16 = iota
	BRCBadType
	BRCBadStat
	BRCBadVendor
	BRCBadSubtype
	BRCEperm
	BRCBadLen
	BRCBufferEmpty
	BRCBufferUnknown
)

// ofp_bad_action_code values.
const (
	BACBadType uint16 = iota
	BACBadLen
	BACBadVendor
	BACBadVendorType
	BACBadOutPort
	BACBadArgument
	BACEperm
	BACTooMany
	BACBadQueue
)

// ofp_flow_mod_failed_code values.
const (
	FMFCAllTablesFull uint16 = iota
	FMFCOverlap
	FMFCEperm
	FMFCBadEmergTimeout
	FMFCBadCommand
	FMFCUnsupported
)

// ofp_queue_op_failed_code values.
const (
	QOFCBadPort uint16 = iota
	QOFCBadQueue
	QOFCEperm
)

// StatsType enumerates ofp_stats_types.
type StatsType uint16

// Statistics request/reply types.
const (
	StatsDesc StatsType = iota
	StatsFlow
	StatsAggregate
	StatsTable
	StatsPort
	StatsQueue
	NumStatsTypes

	StatsVendor StatsType = 0xffff
)

func (t StatsType) String() string {
	names := [...]string{"DESC", "FLOW", "AGGREGATE", "TABLE", "PORT", "QUEUE"}
	if int(t) < len(names) {
		return names[t]
	}
	if t == StatsVendor {
		return "VENDOR"
	}
	return "UNKNOWN_STATS"
}

// Switch config flags (ofp_config_flags): fragment handling.
const (
	FragNormal uint16 = 0
	FragDrop   uint16 = 1
	FragReasm  uint16 = 2
	FragMask   uint16 = 3
)

// PacketIn reasons (ofp_packet_in_reason).
const (
	ReasonNoMatch uint8 = 0
	ReasonAction  uint8 = 1
)

// NoBuffer is the buffer_id meaning "not buffered".
const NoBuffer uint32 = 0xffffffff

// Capabilities bits advertised in FEATURES_REPLY (ofp_capabilities).
const (
	CapFlowStats  uint32 = 1 << 0
	CapTableStats uint32 = 1 << 1
	CapPortStats  uint32 = 1 << 2
	CapSTP        uint32 = 1 << 3
	CapIPReasm    uint32 = 1 << 5
	CapQueueStats uint32 = 1 << 6
	CapARPMatchIP uint32 = 1 << 7
)

// VLANNone indicates no VLAN id was set (ofp_vlan_id OFP_VLAN_NONE).
const VLANNone uint16 = 0xffff
