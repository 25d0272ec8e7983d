// Package harness drives SOFT's first phase: it defines the evaluation's
// test inputs (Table 1, the Figure 4 coverage sequences, and the Table 5
// concretization ablations), builds the structured symbolic OpenFlow
// messages they inject (§3.2.1: concrete message type and length fields,
// concrete action counts and lengths, symbolic everything else), executes
// an agent under the symbolic execution engine, and records one path
// condition plus normalized output trace per explored path.
package harness

import (
	"sync"

	"github.com/soft-testing/soft/internal/agents"
	"github.com/soft-testing/soft/internal/dataplane"
	"github.com/soft-testing/soft/internal/openflow"
	"github.com/soft-testing/soft/internal/sym"
	"github.com/soft-testing/soft/internal/symbuf"
)

// NewSymFn creates (or retrieves) a named symbolic variable — either
// symexec.Context.NewSym during exploration or sym.Var when rebuilding a
// test's inputs to concretize a reproducer.
type NewSymFn func(name string, w int) *sym.Expr

// Input is one element of a test's input sequence: an OpenFlow control
// message or a data plane probe packet.
type Input struct {
	Msg   *symbuf.Buffer
	Probe *dataplane.Packet
}

// Test is one experiment input sequence (a row of Table 1, or a
// registered scenario compiled down to the same shape).
type Test struct {
	// Name is the paper's test name ("Packet Out", "FlowMod", ...) or a
	// registered scenario name.
	Name string
	// Desc is the Table 1 description.
	Desc string
	// MsgCount is the "Message count" column of Table 2.
	MsgCount int
	// Inputs builds the input sequence. It must be deterministic: the
	// engine re-executes it on every path.
	Inputs func(newSym NewSymFn) []Input
	// DefHash identifies the input-sequence *definition* for result
	// caching. Empty for the built-in suite (whose definitions are pinned
	// by the code version); test sources whose definitions can change
	// independently of the binary (scenarios) set it so edited
	// definitions miss the store by construction.
	DefHash string
}

// header writes a concrete OpenFlow header (§3.2.1: type and length stay
// concrete so symbolic execution is not left to guess message boundaries).
func header(buf *symbuf.Buffer, t openflow.MsgType) {
	buf.PutConst(0, 1, openflow.Version)
	buf.PutConst(1, 1, uint64(t))
	buf.PutConst(2, 2, uint64(buf.Len()))
	buf.PutConst(4, 4, 0) // xid: concrete, normalized away anyway
}

// l2Payload writes a small concrete Ethernet frame at off.
func l2Payload(buf *symbuf.Buffer, off int) {
	frame := []byte{
		0, 0, 0, 0, 0, 0xaa, // dst
		0, 0, 0, 0, 0, 0xbb, // src
		0x88, 0xb5, // experimental ethertype
	}
	for i, x := range frame {
		buf.PutConst(off+i, 1, uint64(x))
	}
}

// symbolicAction8 writes an 8-byte action with symbolic type and argument.
func symbolicAction8(buf *symbuf.Buffer, off int, newSym NewSymFn, prefix string) {
	buf.Put(off, newSym(prefix+".type", 16))
	buf.PutConst(off+2, 2, 8)
	buf.Put(off+4, newSym(prefix+".arg", 32))
}

// outputAction writes a concrete OUTPUT action with a symbolic port.
func outputAction(buf *symbuf.Buffer, off int, newSym NewSymFn, prefix string) {
	buf.PutConst(off, 2, uint64(openflow.ActOutput))
	buf.PutConst(off+2, 2, 8)
	buf.Put(off+4, newSym(prefix+".port", 16))
	buf.PutConst(off+6, 2, 0xffff) // max_len
}

// concreteOutputAction writes a fully concrete OUTPUT action.
func concreteOutputAction(buf *symbuf.Buffer, off int, port uint16) {
	buf.PutConst(off, 2, uint64(openflow.ActOutput))
	buf.PutConst(off+2, 2, 8)
	buf.PutConst(off+4, 2, uint64(port))
	buf.PutConst(off+6, 2, 0xffff)
}

// symbolicPacketOut builds the Table 1 Packet Out message: one symbolic
// action plus one symbolic output action.
func symbolicPacketOut(newSym NewSymFn) *symbuf.Buffer {
	const actsLen = 16
	buf := symbuf.New(openflow.PacketOutFixedLen + actsLen + 14)
	header(buf, openflow.TypePacketOut)
	buf.Put(agents.OffPOBufferID, newSym("po.buffer_id", 32))
	buf.Put(agents.OffPOInPort, newSym("po.in_port", 16))
	buf.PutConst(agents.OffPOActionsLen, 2, actsLen)
	symbolicAction8(buf, 16, newSym, "po.act0")
	outputAction(buf, 24, newSym, "po.out")
	l2Payload(buf, 32)
	return buf
}

// symbolicFlowModOpts controls which parts of a Flow Mod stay concrete —
// the knobs of the Table 5 ablation.
type symbolicFlowModOpts struct {
	prefix string
	// concreteMatch pins the match to fully wildcarded.
	concreteMatch bool
	// ethOnly concretizes fields unrelated to Ethernet (Eth FlowMod).
	ethOnly bool
	// nSymActions is the number of leading symbolic actions.
	nSymActions int
	// nOutActions is the number of trailing symbolic output actions.
	nOutActions int
	// concreteActions replaces all actions with a single output:2.
	concreteActions bool
	// concreteMeta pins command/flags/buffer/priority/timeouts.
	concreteMeta bool
}

func symbolicFlowMod(newSym NewSymFn, o symbolicFlowModOpts) *symbuf.Buffer {
	nActs := o.nSymActions + o.nOutActions
	actsLen := nActs * 8
	if o.concreteActions {
		actsLen = 8
	}
	buf := symbuf.New(openflow.FlowModFixedLen + actsLen)
	header(buf, openflow.TypeFlowMod)
	p := o.prefix

	// Match.
	switch {
	case o.concreteMatch:
		buf.PutConst(agents.OffFMMatch+agents.MOffWildcards, 4, uint64(openflow.FWAll))
	case o.ethOnly:
		// Ethernet fields symbolic; everything else wildcarded.
		wild := openflow.FWAll &^ (openflow.FWDLSrc | openflow.FWDLDst |
			openflow.FWDLVLAN | openflow.FWDLType)
		buf.PutConst(agents.OffFMMatch+agents.MOffWildcards, 4, uint64(wild))
		buf.Put(agents.OffFMMatch+agents.MOffDLSrc, newSym(p+".match.dl_src", 48))
		buf.Put(agents.OffFMMatch+agents.MOffDLDst, newSym(p+".match.dl_dst", 48))
		buf.Put(agents.OffFMMatch+agents.MOffDLVLAN, newSym(p+".match.dl_vlan", 16))
		buf.Put(agents.OffFMMatch+agents.MOffDLType, newSym(p+".match.dl_type", 16))
	default:
		buf.Put(agents.OffFMMatch+agents.MOffWildcards, newSym(p+".match.wildcards", 32))
		buf.Put(agents.OffFMMatch+agents.MOffInPort, newSym(p+".match.in_port", 16))
		buf.Put(agents.OffFMMatch+agents.MOffDLSrc, newSym(p+".match.dl_src", 48))
		buf.Put(agents.OffFMMatch+agents.MOffDLDst, newSym(p+".match.dl_dst", 48))
		buf.Put(agents.OffFMMatch+agents.MOffDLVLAN, newSym(p+".match.dl_vlan", 16))
		buf.Put(agents.OffFMMatch+agents.MOffDLVLANPCP, newSym(p+".match.dl_vlan_pcp", 8))
		buf.Put(agents.OffFMMatch+agents.MOffDLType, newSym(p+".match.dl_type", 16))
		buf.Put(agents.OffFMMatch+agents.MOffNWTos, newSym(p+".match.nw_tos", 8))
		buf.Put(agents.OffFMMatch+agents.MOffNWProto, newSym(p+".match.nw_proto", 8))
		buf.Put(agents.OffFMMatch+agents.MOffNWSrc, newSym(p+".match.nw_src", 32))
		buf.Put(agents.OffFMMatch+agents.MOffNWDst, newSym(p+".match.nw_dst", 32))
		buf.Put(agents.OffFMMatch+agents.MOffTPSrc, newSym(p+".match.tp_src", 16))
		buf.Put(agents.OffFMMatch+agents.MOffTPDst, newSym(p+".match.tp_dst", 16))
	}

	// Metadata.
	buf.PutConst(agents.OffFMCookie, 8, 0)
	if o.concreteMeta {
		buf.PutConst(agents.OffFMCommand, 2, uint64(openflow.FCAdd))
		buf.PutConst(agents.OffFMIdle, 2, 0)
		buf.PutConst(agents.OffFMHard, 2, 0)
		buf.PutConst(agents.OffFMPriority, 2, 0x8000)
		buf.PutConst(agents.OffFMBufferID, 4, uint64(openflow.NoBuffer))
		buf.PutConst(agents.OffFMOutPort, 2, uint64(openflow.PortNone))
		buf.PutConst(agents.OffFMFlags, 2, 0)
	} else {
		buf.Put(agents.OffFMCommand, newSym(p+".command", 16))
		buf.Put(agents.OffFMIdle, newSym(p+".idle_timeout", 16))
		buf.Put(agents.OffFMHard, newSym(p+".hard_timeout", 16))
		buf.Put(agents.OffFMPriority, newSym(p+".priority", 16))
		buf.Put(agents.OffFMBufferID, newSym(p+".buffer_id", 32))
		buf.Put(agents.OffFMOutPort, newSym(p+".out_port", 16))
		buf.Put(agents.OffFMFlags, newSym(p+".flags", 16))
	}

	// Actions.
	off := agents.OffFMActions
	if o.concreteActions {
		concreteOutputAction(buf, off, 2)
		return buf
	}
	for i := 0; i < o.nSymActions; i++ {
		symbolicAction8(buf, off, newSym, p+actIndex(i))
		off += 8
	}
	for i := 0; i < o.nOutActions; i++ {
		outputAction(buf, off, newSym, p+outIndex(i))
		off += 8
	}
	return buf
}

func actIndex(i int) string { return ".act" + string(rune('0'+i)) }
func outIndex(i int) string { return ".out" + string(rune('0'+i)) }

// concreteFlowMod builds the concrete first message of the CS FlowMods
// test: ADD an exact-ish TCP rule (tp_dst=2000) outputting to port 2.
func concreteFlowMod() *symbuf.Buffer {
	buf := symbuf.New(openflow.FlowModFixedLen + 8)
	header(buf, openflow.TypeFlowMod)
	wild := openflow.FWAll &^ (openflow.FWDLType | openflow.FWNWProto | openflow.FWTPDst)
	buf.PutConst(agents.OffFMMatch+agents.MOffWildcards, 4, uint64(wild))
	buf.PutConst(agents.OffFMMatch+agents.MOffDLType, 2, dataplane.EtherTypeIPv4)
	buf.PutConst(agents.OffFMMatch+agents.MOffNWProto, 1, dataplane.ProtoTCP)
	buf.PutConst(agents.OffFMMatch+agents.MOffTPDst, 2, 2000)
	buf.PutConst(agents.OffFMCookie, 8, 7)
	buf.PutConst(agents.OffFMCommand, 2, uint64(openflow.FCAdd))
	buf.PutConst(agents.OffFMIdle, 2, 0)
	buf.PutConst(agents.OffFMHard, 2, 0)
	buf.PutConst(agents.OffFMPriority, 2, 0x8000)
	buf.PutConst(agents.OffFMBufferID, 4, uint64(openflow.NoBuffer))
	buf.PutConst(agents.OffFMOutPort, 2, uint64(openflow.PortNone))
	buf.PutConst(agents.OffFMFlags, 2, 0)
	concreteOutputAction(buf, agents.OffFMActions, 2)
	return buf
}

// symbolicSetConfig builds the Table 1 Set Config message.
func symbolicSetConfig(newSym NewSymFn) *symbuf.Buffer {
	buf := symbuf.New(openflow.SetConfigLen)
	header(buf, openflow.TypeSetConfig)
	buf.Put(agents.OffSCFlags, newSym("sc.flags", 16))
	buf.Put(agents.OffSCMissSendLen, newSym("sc.miss_send_len", 16))
	return buf
}

// symbolicStatsRequest builds the Table 1 Stats Request: symbolic type,
// flags and an 8-byte body whose port field is symbolic — "it covers all
// possible statistics requests".
func symbolicStatsRequest(newSym NewSymFn) *symbuf.Buffer {
	buf := symbuf.New(openflow.StatsRequestFixedLen + 8)
	header(buf, openflow.TypeStatsRequest)
	buf.Put(agents.OffStatsType, newSym("sr.type", 16))
	buf.Put(10, newSym("sr.flags", 16))
	buf.Put(agents.OffStatsBody, newSym("sr.port", 16))
	// Remaining body bytes stay zero (pad).
	return buf
}

// shortSymbolic builds the Table 1 Short Symb message: 10 bytes, only the
// version byte concrete — the unstructured-input comparison point of
// §3.2.1.
func shortSymbolic(newSym NewSymFn) *symbuf.Buffer {
	buf := symbuf.New(10)
	buf.PutConst(0, 1, openflow.Version)
	for i := 1; i < 10; i++ {
		buf.SetByte(i, newSym("ss.b"+string(rune('0'+i)), 8))
	}
	return buf
}

// concreteMessages builds the Table 1 Concrete test: four fixed-field
// 8-byte messages.
func concreteMessages() []Input {
	var ins []Input
	for _, t := range []openflow.MsgType{
		openflow.TypeHello, openflow.TypeFeaturesRequest,
		openflow.TypeGetConfigRequest, openflow.TypeBarrierRequest,
	} {
		buf := symbuf.New(openflow.HeaderLen)
		header(buf, t)
		ins = append(ins, Input{Msg: buf})
	}
	return ins
}

// Tests returns the Table 1 suite.
func Tests() []Test {
	return []Test{
		{
			Name:     "Packet Out",
			Desc:     "A single Packet Out message containing a symbolic action and a symbolic output action.",
			MsgCount: 1,
			Inputs: func(ns NewSymFn) []Input {
				return []Input{{Msg: symbolicPacketOut(ns)}}
			},
		},
		{
			Name:     "Stats Request",
			Desc:     "A single symbolic Stats Req. It covers all possible statistics requests.",
			MsgCount: 1,
			Inputs: func(ns NewSymFn) []Input {
				return []Input{{Msg: symbolicStatsRequest(ns)}}
			},
		},
		{
			Name:     "Set Config",
			Desc:     "A symbolic Set Config message followed by a probing TCP packet.",
			MsgCount: 2,
			Inputs: func(ns NewSymFn) []Input {
				return []Input{
					{Msg: symbolicSetConfig(ns)},
					{Probe: dataplane.TCPProbe(1)},
				}
			},
		},
		{
			Name:     "FlowMod",
			Desc:     "A symbolic Flow Mod with 1 symbolic action and a symbolic output action followed by a probing TCP packet.",
			MsgCount: 2,
			Inputs: func(ns NewSymFn) []Input {
				return []Input{
					{Msg: symbolicFlowMod(ns, symbolicFlowModOpts{
						prefix: "fm", nSymActions: 1, nOutActions: 1,
					})},
					{Probe: dataplane.TCPProbe(1)},
				}
			},
		},
		{
			Name:     "Eth FlowMod",
			Desc:     "Symbolic Flow Mod with 1 symbolic action and a symbolic output action. Fields not related to Ethernet are concretized. The message is followed by a probing Ethernet packet.",
			MsgCount: 2,
			Inputs: func(ns NewSymFn) []Input {
				return []Input{
					{Msg: symbolicFlowMod(ns, symbolicFlowModOpts{
						prefix: "efm", ethOnly: true, concreteMeta: true,
						nSymActions: 1, nOutActions: 1,
					})},
					{Probe: dataplane.EthernetProbe(1)},
				}
			},
		},
		{
			Name:     "CS FlowMods",
			Desc:     "2 Flow Mod. The first one is concrete, the second is symbolic.",
			MsgCount: 2,
			Inputs: func(ns NewSymFn) []Input {
				return []Input{
					{Msg: concreteFlowMod()},
					{Msg: symbolicFlowMod(ns, symbolicFlowModOpts{
						prefix: "fm2", nSymActions: 1, nOutActions: 1,
					})},
				}
			},
		},
		{
			Name:     "Concrete",
			Desc:     "4 concrete 8-byte messages. These are the messages that do not have variable fields.",
			MsgCount: 4,
			Inputs: func(NewSymFn) []Input {
				return concreteMessages()
			},
		},
		{
			Name:     "Short Symb",
			Desc:     "A 10-byte symbolic message. Only the OpenFlow version field is concrete.",
			MsgCount: 1,
			Inputs: func(ns NewSymFn) []Input {
				return []Input{{Msg: shortSymbolic(ns)}}
			},
		},
	}
}

// testSources are extra name resolvers consulted by TestByName after the
// built-in Table 1 suite (registered by the scenario subsystem, so every
// layer that resolves tests by name — the scheduler, distributed
// workers — resolves scenarios with no further plumbing).
var (
	testSourcesMu sync.RWMutex
	testSources   []func(name string) (Test, bool)
)

// RegisterTestSource registers a test resolver consulted by TestByName
// when a name is not in the built-in suite. Sources are tried in
// registration order; typically called from a package init.
func RegisterTestSource(fn func(name string) (Test, bool)) {
	testSourcesMu.Lock()
	defer testSourcesMu.Unlock()
	testSources = append(testSources, fn)
}

// TestByName returns the named Table 1 test, or resolves the name
// through the registered test sources (scenarios).
func TestByName(name string) (Test, bool) {
	for _, t := range Tests() {
		if t.Name == name {
			return t, true
		}
	}
	testSourcesMu.RLock()
	defer testSourcesMu.RUnlock()
	for _, src := range testSources {
		if t, ok := src(name); ok {
			return t, true
		}
	}
	return Test{}, false
}

// AblationTests returns the Table 5 concretization ablations. The upper
// block varies the Flow Mod (baseline, concrete match, concrete action);
// the lower block varies the probe (concrete versus symbolic).
func AblationTests() []Test {
	base := func(o symbolicFlowModOpts, probe func(NewSymFn) *dataplane.Packet) func(NewSymFn) []Input {
		return func(ns NewSymFn) []Input {
			return []Input{
				{Msg: symbolicFlowMod(ns, o)},
				{Probe: probe(ns)},
			}
		}
	}
	tcpProbe := func(NewSymFn) *dataplane.Packet { return dataplane.TCPProbe(1) }
	ethProbe := func(NewSymFn) *dataplane.Packet { return dataplane.EthernetProbe(1) }
	symProbe := func(ns NewSymFn) *dataplane.Packet {
		return dataplane.SymbolicPacket(ns, "probe", 1)
	}
	// The paper's baseline uses 2 symbolic actions plus 2 symbolic output
	// actions; our scaled-down substrate uses 1+1 (the same shape at a
	// path count that keeps the ablation runnable in seconds — see
	// EXPERIMENTS.md).
	return []Test{
		{
			Name:     "Fully Symbolic",
			Desc:     "Flow Mod with a symbolic action and a symbolic output action, TCP probe (Table 5 baseline).",
			MsgCount: 2,
			Inputs: func(ns NewSymFn) []Input {
				return base(symbolicFlowModOpts{prefix: "ab", nSymActions: 1, nOutActions: 1}, tcpProbe)(ns)
			},
		},
		{
			Name:     "Concrete Match",
			Desc:     "Baseline with a concrete (wildcard) match.",
			MsgCount: 2,
			Inputs: func(ns NewSymFn) []Input {
				return base(symbolicFlowModOpts{prefix: "ab", concreteMatch: true, nSymActions: 1, nOutActions: 1}, tcpProbe)(ns)
			},
		},
		{
			Name:     "Concrete Action",
			Desc:     "Baseline with a single concrete action instead of 4 symbolic ones.",
			MsgCount: 2,
			Inputs: func(ns NewSymFn) []Input {
				return base(symbolicFlowModOpts{prefix: "ab", concreteActions: true}, tcpProbe)(ns)
			},
		},
		{
			Name:     "Concrete Probe",
			Desc:     "Partially symbolic Ethernet Flow Mod followed by a concrete short probe.",
			MsgCount: 2,
			Inputs: func(ns NewSymFn) []Input {
				return base(symbolicFlowModOpts{prefix: "ab", ethOnly: true, concreteMeta: true, nSymActions: 1, nOutActions: 1}, ethProbe)(ns)
			},
		},
		{
			Name:     "Symbolic Probe",
			Desc:     "Partially symbolic Ethernet Flow Mod followed by a symbolic probe.",
			MsgCount: 2,
			Inputs: func(ns NewSymFn) []Input {
				return base(symbolicFlowModOpts{prefix: "ab", ethOnly: true, concreteMeta: true, nSymActions: 1, nOutActions: 1}, symProbe)(ns)
			},
		},
	}
}

// PriorityFlowMod returns a focused Flow Mod variant: everything concrete
// except the priority, followed by a probe. The injected-modification
// experiment (§5.1.1) uses it in place of the full FlowMod test to catch
// state-dependent modifications (a silently dropped add changes the probe
// outcome) without the full test's exploration cost.
func PriorityFlowMod() Test {
	return Test{
		Name:     "Priority FlowMod",
		Desc:     "Flow Mod with symbolic priority only, followed by a probing TCP packet.",
		MsgCount: 2,
		Inputs: func(ns NewSymFn) []Input {
			buf := symbuf.New(openflow.FlowModFixedLen + 8)
			header(buf, openflow.TypeFlowMod)
			buf.PutConst(agents.OffFMMatch+agents.MOffWildcards, 4, uint64(openflow.FWAll))
			buf.PutConst(agents.OffFMCookie, 8, 0)
			buf.PutConst(agents.OffFMCommand, 2, uint64(openflow.FCAdd))
			buf.PutConst(agents.OffFMIdle, 2, 0)
			buf.PutConst(agents.OffFMHard, 2, 0)
			buf.Put(agents.OffFMPriority, ns("fm.priority", 16))
			buf.PutConst(agents.OffFMBufferID, 4, uint64(openflow.NoBuffer))
			buf.PutConst(agents.OffFMOutPort, 2, uint64(openflow.PortNone))
			buf.PutConst(agents.OffFMFlags, 2, 0)
			concreteOutputAction(buf, agents.OffFMActions, 2)
			return []Input{{Msg: buf}, {Probe: dataplane.TCPProbe(1)}}
		},
	}
}

// CoverageSequence returns the Figure 4 input sequence with n symbolic
// messages (n in 1..3): FlowMod-family messages whose cross-interactions
// drive the coverage increments the paper reports.
func CoverageSequence(n int) Test {
	return Test{
		Name:     "Coverage-" + string(rune('0'+n)),
		Desc:     "Figure 4 sequence with n symbolic messages.",
		MsgCount: n,
		Inputs: func(ns NewSymFn) []Input {
			// Message 1: a plain symbolic ADD — covers single-message
			// processing. Message 2: a fully symbolic Flow Mod whose
			// MODIFY/DELETE/overlap paths only execute against the state
			// message 1 installed — the cross-interaction coverage the
			// second symbolic message buys (§3.2.2). Message 3 repeats
			// the shape of message 2 and adds almost nothing.
			ins := []Input{{Msg: symbolicFlowMod(ns, symbolicFlowModOpts{
				prefix: "c1", concreteMeta: true, nSymActions: 1, nOutActions: 1,
			})}}
			if n >= 2 {
				ins = append(ins, Input{Msg: symbolicFlowMod(ns, symbolicFlowModOpts{
					prefix: "c2", concreteMatch: true, nSymActions: 1, nOutActions: 1,
				})})
			}
			if n >= 3 {
				ins = append(ins, Input{Msg: symbolicFlowMod(ns, symbolicFlowModOpts{
					prefix: "c3", concreteMatch: true, nSymActions: 1, nOutActions: 1,
				})})
			}
			ins = append(ins, Input{Probe: dataplane.TCPProbe(1)})
			return ins
		},
	}
}
