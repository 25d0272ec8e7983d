// Package flowtable implements the OpenFlow 1.0 flow table the agent models
// install state into. Entries originate from (possibly symbolic) Flow Mod
// messages, so every field of an entry is a sym expression; matching a
// concrete probe packet against a symbolic entry produces a boolean
// expression the agent branches on — this is exactly how SOFT's concrete
// probes externalize symbolic switch state (§3.3).
package flowtable

import (
	"fmt"

	"github.com/soft-testing/soft/internal/dataplane"
	"github.com/soft-testing/soft/internal/openflow"
	"github.com/soft-testing/soft/internal/sym"
)

// SymAction is one action of an installed entry. Length is concrete per the
// structured-input rule (§3.2.1); Type and the argument bytes may be
// symbolic.
type SymAction struct {
	// Type is the 16-bit action type code.
	Type *sym.Expr
	// Arg16 is the primary 16-bit argument (output port, vlan vid, tp
	// port); nil when the action family has none.
	Arg16 *sym.Expr
	// Arg8 is the primary 8-bit argument (vlan pcp, nw tos).
	Arg8 *sym.Expr
	// Arg32 is the primary 32-bit argument (nw addresses, queue id).
	Arg32 *sym.Expr
	// Arg48 is the MAC argument for set_dl_{src,dst}.
	Arg48 *sym.Expr
	// MaxLen is the output action's max_len field.
	MaxLen *sym.Expr
}

// Entry is one installed flow. All match fields and metadata are symbolic
// expressions (concrete values are constant expressions).
type Entry struct {
	Wildcards *sym.Expr // 32
	InPort    *sym.Expr // 16
	DLSrc     *sym.Expr // 48
	DLDst     *sym.Expr // 48
	DLVLAN    *sym.Expr // 16
	DLVLANPCP *sym.Expr // 8
	DLType    *sym.Expr // 16
	NWTos     *sym.Expr // 8
	NWProto   *sym.Expr // 8
	NWSrc     *sym.Expr // 32
	NWDst     *sym.Expr // 32
	TPSrc     *sym.Expr // 16
	TPDst     *sym.Expr // 16

	Priority    *sym.Expr // 16
	Cookie      *sym.Expr // 64
	IdleTimeout *sym.Expr // 16
	HardTimeout *sym.Expr // 16
	Actions     []SymAction
	Emergency   bool

	// Packets and Bytes are per-entry counters for flow statistics replies.
	Packets uint64
	Bytes   uint64
}

// NewWildcardEntry returns an entry with every field fully wildcarded and
// zero metadata — the starting point for building concrete test entries.
func NewWildcardEntry() *Entry {
	z16 := sym.Const(16, 0)
	return &Entry{
		Wildcards:   sym.Const(32, uint64(openflow.FWAll)),
		InPort:      z16,
		DLSrc:       sym.Const(48, 0),
		DLDst:       sym.Const(48, 0),
		DLVLAN:      z16,
		DLVLANPCP:   sym.Const(8, 0),
		DLType:      z16,
		NWTos:       sym.Const(8, 0),
		NWProto:     sym.Const(8, 0),
		NWSrc:       sym.Const(32, 0),
		NWDst:       sym.Const(32, 0),
		TPSrc:       z16,
		TPDst:       z16,
		Priority:    z16,
		Cookie:      sym.Const(64, 0),
		IdleTimeout: z16,
		HardTimeout: z16,
	}
}

// wildBit returns the boolean expression "wildcard bit w is set in e".
func (e *Entry) wildBit(bit uint32) *sym.Expr {
	return sym.Ne(sym.And(e.Wildcards, sym.Const(32, uint64(bit))), sym.Const(32, 0))
}

// nwWildBits extracts the 6-bit address wildcard counter.
func (e *Entry) nwWildBits(shift uint32) *sym.Expr {
	return sym.Extract(sym.Lshr(e.Wildcards, int(shift)), 5, 0)
}

// fieldCond builds "bit wildcarded OR field equals packet field".
func (e *Entry) fieldCond(bit uint32, field, pktField *sym.Expr) *sym.Expr {
	return sym.LOr(e.wildBit(bit), sym.Eq(field, pktField))
}

// addrCond builds the CIDR-style condition for nw_src/nw_dst: with k low
// bits wildcarded, the top 32-k bits must agree; k >= 32 ignores the field.
func (e *Entry) addrCond(shift uint32, field, pktField *sym.Expr) *sym.Expr {
	bits := e.nwWildBits(shift) // 6-bit
	// k >= 32: always match.
	cases := make([]*sym.Expr, 0, 33)
	cases = append(cases, sym.Uge(bits, sym.Const(6, 32)))
	// Exact k: compare high 32-k bits. Enumerate the 33 concrete cases;
	// constant wildcards fold to a single comparison. One LOr call
	// flattens and deduplicates all the cases in a single pass.
	for k := 0; k < 32; k++ {
		eqHigh := sym.Eq(sym.Lshr(field, k), sym.Lshr(pktField, k))
		cases = append(cases, sym.LAnd(sym.EqConst(bits, uint64(k)), eqHigh))
	}
	return sym.LOr(cases...)
}

// MatchCond returns the boolean expression "packet p matches entry e".
func (e *Entry) MatchCond(p *dataplane.Packet) *sym.Expr {
	return sym.LAnd(
		e.fieldCond(openflow.FWInPort, e.InPort, p.MatchInPort()),
		e.fieldCond(openflow.FWDLSrc, e.DLSrc, p.MatchDLSrc()),
		e.fieldCond(openflow.FWDLDst, e.DLDst, p.MatchDLDst()),
		e.fieldCond(openflow.FWDLVLAN, e.DLVLAN, p.MatchDLVLAN()),
		e.fieldCond(openflow.FWDLVLANPCP, e.DLVLANPCP, p.MatchDLVLANPCP()),
		e.fieldCond(openflow.FWDLType, e.DLType, p.MatchDLType()),
		e.fieldCond(openflow.FWNWTos, e.NWTos, p.MatchNWTos()),
		e.fieldCond(openflow.FWNWProto, e.NWProto, p.MatchNWProto()),
		e.addrCond(openflow.FWNWSrcShift, e.NWSrc, p.MatchNWSrc()),
		e.addrCond(openflow.FWNWDstShift, e.NWDst, p.MatchNWDst()),
		e.fieldCond(openflow.FWTPSrc, e.TPSrc, p.MatchTPSrc()),
		e.fieldCond(openflow.FWTPDst, e.TPDst, p.MatchTPDst()),
	)
}

// MatchConds returns MatchCond split into per-field conjuncts, in match
// field order. Agents branch on each in sequence — the short-circuiting
// field-comparison loop of real classifiers, which is what makes a
// symbolic match partition probe processing finely (Table 5's "Concrete
// Match" row owes its contrast to this loop).
func (e *Entry) MatchConds(p *dataplane.Packet) []*sym.Expr {
	full := e.MatchCond(p)
	if full.Op == sym.OpLAnd {
		return full.Kids
	}
	return []*sym.Expr{full}
}

// subsumeField builds "a's field is equal-or-more-general than b's":
// a wildcarded, or both concrete-specified and equal.
func subsumeField(a, b *Entry, bit uint32, af, bf *sym.Expr) *sym.Expr {
	return sym.LOr(
		a.wildBit(bit),
		sym.LAnd(sym.LNot(b.wildBit(bit)), sym.Eq(af, bf)),
	)
}

// SubsumesCond returns the boolean expression "every packet matching b also
// matches a" — the non-strict DELETE / MODIFY applicability test.
func (a *Entry) SubsumesCond(b *Entry) *sym.Expr {
	conds := []*sym.Expr{
		subsumeField(a, b, openflow.FWInPort, a.InPort, b.InPort),
		subsumeField(a, b, openflow.FWDLSrc, a.DLSrc, b.DLSrc),
		subsumeField(a, b, openflow.FWDLDst, a.DLDst, b.DLDst),
		subsumeField(a, b, openflow.FWDLVLAN, a.DLVLAN, b.DLVLAN),
		subsumeField(a, b, openflow.FWDLVLANPCP, a.DLVLANPCP, b.DLVLANPCP),
		subsumeField(a, b, openflow.FWDLType, a.DLType, b.DLType),
		subsumeField(a, b, openflow.FWNWTos, a.NWTos, b.NWTos),
		subsumeField(a, b, openflow.FWNWProto, a.NWProto, b.NWProto),
		subsumeField(a, b, openflow.FWTPSrc, a.TPSrc, b.TPSrc),
		subsumeField(a, b, openflow.FWTPDst, a.TPDst, b.TPDst),
	}
	for _, sh := range []uint32{openflow.FWNWSrcShift, openflow.FWNWDstShift} {
		ab, bb := a.nwWildBits(sh), b.nwWildBits(sh)
		var af, bf *sym.Expr
		if sh == openflow.FWNWSrcShift {
			af, bf = a.NWSrc, b.NWSrc
		} else {
			af, bf = a.NWDst, b.NWDst
		}
		// a's prefix no longer than b's, and the common high bits equal
		// (or a fully wildcarded).
		c := sym.Uge(ab, sym.Const(6, 32))
		for k := 0; k < 32; k++ {
			eqHigh := sym.Eq(sym.Lshr(af, k), sym.Lshr(bf, k))
			c = sym.LOr(c, sym.LAnd(
				sym.EqConst(ab, uint64(k)),
				sym.Ule(bb, sym.Const(6, uint64(k))),
				eqHigh,
			))
		}
		conds = append(conds, c)
	}
	return sym.LAnd(conds...)
}

// SubsumesConds returns SubsumesCond split into its per-field conjuncts,
// in a fixed field order. Agents branch on each conjunct in sequence —
// mirroring the short-circuiting field loop real implementations use,
// which is what makes symbolic execution partition DELETE/MODIFY
// processing finely (the paper's CS FlowMods test owes its path counts to
// this loop).
func (a *Entry) SubsumesConds(b *Entry) []*sym.Expr {
	full := a.SubsumesCond(b)
	if full.Op == sym.OpLAnd {
		return full.Kids
	}
	return []*sym.Expr{full}
}

// IdenticalConds returns IdenticalCond split into per-field conjuncts.
func (a *Entry) IdenticalConds(b *Entry) []*sym.Expr {
	full := a.IdenticalCond(b)
	if full.Op == sym.OpLAnd {
		return full.Kids
	}
	return []*sym.Expr{full}
}

// IdenticalCond returns "a and b have identical matches and priority" —
// the strict-command applicability test (OFPFC_MODIFY_STRICT /
// DELETE_STRICT) and the duplicate test on ADD.
func (a *Entry) IdenticalCond(b *Entry) *sym.Expr {
	same := func(bit uint32, af, bf *sym.Expr) *sym.Expr {
		// Both wildcarded, or neither and equal.
		return sym.LOr(
			sym.LAnd(a.wildBit(bit), b.wildBit(bit)),
			sym.LAnd(sym.LNot(a.wildBit(bit)), sym.LNot(b.wildBit(bit)), sym.Eq(af, bf)),
		)
	}
	conds := []*sym.Expr{
		sym.Eq(a.Priority, b.Priority),
		same(openflow.FWInPort, a.InPort, b.InPort),
		same(openflow.FWDLSrc, a.DLSrc, b.DLSrc),
		same(openflow.FWDLDst, a.DLDst, b.DLDst),
		same(openflow.FWDLVLAN, a.DLVLAN, b.DLVLAN),
		same(openflow.FWDLVLANPCP, a.DLVLANPCP, b.DLVLANPCP),
		same(openflow.FWDLType, a.DLType, b.DLType),
		same(openflow.FWNWTos, a.NWTos, b.NWTos),
		same(openflow.FWNWProto, a.NWProto, b.NWProto),
		same(openflow.FWTPSrc, a.TPSrc, b.TPSrc),
		same(openflow.FWTPDst, a.TPDst, b.TPDst),
	}
	for _, sh := range []uint32{openflow.FWNWSrcShift, openflow.FWNWDstShift} {
		ab, bb := a.nwWildBits(sh), b.nwWildBits(sh)
		var af, bf *sym.Expr
		if sh == openflow.FWNWSrcShift {
			af, bf = a.NWSrc, b.NWSrc
		} else {
			af, bf = a.NWDst, b.NWDst
		}
		c := sym.LAnd(sym.Uge(ab, sym.Const(6, 32)), sym.Uge(bb, sym.Const(6, 32)))
		for k := 0; k < 32; k++ {
			c = sym.LOr(c, sym.LAnd(
				sym.EqConst(ab, uint64(k)),
				sym.EqConst(bb, uint64(k)),
				sym.Eq(sym.Lshr(af, k), sym.Lshr(bf, k)),
			))
		}
		conds = append(conds, c)
	}
	return sym.LAnd(conds...)
}

// OverlapCond returns "a packet could match both a and b at equal priority"
// — the OFPFF_CHECK_OVERLAP test. Two field-wise matches overlap iff for
// every field at least one side wildcards it or the values agree.
func (a *Entry) OverlapCond(b *Entry) *sym.Expr {
	f := func(bit uint32, af, bf *sym.Expr) *sym.Expr {
		return sym.LOr(a.wildBit(bit), b.wildBit(bit), sym.Eq(af, bf))
	}
	conds := []*sym.Expr{
		sym.Eq(a.Priority, b.Priority),
		f(openflow.FWInPort, a.InPort, b.InPort),
		f(openflow.FWDLSrc, a.DLSrc, b.DLSrc),
		f(openflow.FWDLDst, a.DLDst, b.DLDst),
		f(openflow.FWDLVLAN, a.DLVLAN, b.DLVLAN),
		f(openflow.FWDLVLANPCP, a.DLVLANPCP, b.DLVLANPCP),
		f(openflow.FWDLType, a.DLType, b.DLType),
		f(openflow.FWNWTos, a.NWTos, b.NWTos),
		f(openflow.FWNWProto, a.NWProto, b.NWProto),
		f(openflow.FWTPSrc, a.TPSrc, b.TPSrc),
		f(openflow.FWTPDst, a.TPDst, b.TPDst),
	}
	for _, sh := range []uint32{openflow.FWNWSrcShift, openflow.FWNWDstShift} {
		ab, bb := a.nwWildBits(sh), b.nwWildBits(sh)
		var af, bf *sym.Expr
		if sh == openflow.FWNWSrcShift {
			af, bf = a.NWSrc, b.NWSrc
		} else {
			af, bf = a.NWDst, b.NWDst
		}
		// Overlap in the address dimension: agree on the bits above
		// max(ka, kb); equivalently above min 32.
		c := sym.LOr(sym.Uge(ab, sym.Const(6, 32)), sym.Uge(bb, sym.Const(6, 32)))
		for k := 0; k < 32; k++ {
			// max(ka,kb) == k cases folded: require agreement above k when
			// both <= k and at least one == k.
			agree := sym.Eq(sym.Lshr(af, k), sym.Lshr(bf, k))
			atK := sym.LOr(
				sym.LAnd(sym.EqConst(ab, uint64(k)), sym.Ule(bb, sym.Const(6, uint64(k)))),
				sym.LAnd(sym.EqConst(bb, uint64(k)), sym.Ule(ab, sym.Const(6, uint64(k)))),
			)
			c = sym.LOr(c, sym.LAnd(atK, agree))
		}
		conds = append(conds, c)
	}
	return sym.LAnd(conds...)
}

// Table is a flow table: a normal entry list plus the emergency cache
// (OpenFlow 1.0 §3.3; the reference switch supports emergency entries, Open
// vSwitch 1.0.0 does not — one of the paper's §5.1.2 findings).
type Table struct {
	Entries   []*Entry
	Emergency []*Entry
	// Capacity bounds the normal entry list; Add reports table-full beyond
	// it.
	Capacity int
}

// New returns an empty table with the given capacity (0 = default 1024).
func New(capacity int) *Table {
	if capacity == 0 {
		capacity = 1024
	}
	return &Table{Capacity: capacity}
}

// Add appends an entry. It reports false when the table is full.
func (t *Table) Add(e *Entry) bool {
	if e.Emergency {
		t.Emergency = append(t.Emergency, e)
		return true
	}
	if len(t.Entries) >= t.Capacity {
		return false
	}
	t.Entries = append(t.Entries, e)
	return true
}

// Remove deletes the entry at index i of the normal list.
func (t *Table) Remove(i int) {
	t.Entries = append(t.Entries[:i], t.Entries[i+1:]...)
}

// Len returns the number of normal entries.
func (t *Table) Len() int { return len(t.Entries) }

// String summarizes the table for traces and debugging.
func (t *Table) String() string {
	return fmt.Sprintf("flowtable{%d entries, %d emergency}", len(t.Entries), len(t.Emergency))
}
