package flowtable

import (
	"testing"

	"github.com/soft-testing/soft/internal/dataplane"
	"github.com/soft-testing/soft/internal/openflow"
	"github.com/soft-testing/soft/internal/solver"
	"github.com/soft-testing/soft/internal/sym"
)

// concreteEntry builds an entry matching TCP packets to 10.0.0.2:2000.
func concreteEntry() *Entry {
	e := NewWildcardEntry()
	e.Wildcards = sym.Const(32, uint64(openflow.FWAll&^(openflow.FWDLType|openflow.FWNWProto|openflow.FWTPDst)))
	e.DLType = sym.Const(16, dataplane.EtherTypeIPv4)
	e.NWProto = sym.Const(8, dataplane.ProtoTCP)
	e.TPDst = sym.Const(16, 2000)
	return e
}

func TestConcreteMatch(t *testing.T) {
	e := concreteEntry()
	p := dataplane.TCPProbe(1)
	cond := e.MatchCond(p)
	if !sym.EvalBool(cond, nil) {
		t.Fatal("probe must match the TCP entry")
	}
	// Different destination port: no match.
	p2 := p.Clone()
	p2.TPDst = sym.Const(16, 2001)
	if sym.EvalBool(e.MatchCond(p2), nil) {
		t.Fatal("probe with wrong port must not match")
	}
}

func TestWildcardAllMatchesEverything(t *testing.T) {
	e := NewWildcardEntry()
	for _, p := range []*dataplane.Packet{
		dataplane.TCPProbe(1), dataplane.EthernetProbe(9),
	} {
		if !sym.EvalBool(e.MatchCond(p), nil) {
			t.Fatalf("wildcard-all must match %s", p.CanonicalString())
		}
	}
}

func TestSymbolicEntryMatchForksOnPort(t *testing.T) {
	// Entry with symbolic in_port (all else wildcarded): the match
	// condition must be satisfiable exactly when in_port == probe port.
	e := NewWildcardEntry()
	e.Wildcards = sym.Const(32, uint64(openflow.FWAll&^openflow.FWInPort))
	e.InPort = sym.Var("fm.in_port", 16)
	p := dataplane.TCPProbe(3)
	cond := e.MatchCond(p)

	s := solver.New()
	r, m := s.Check(cond)
	if r != solver.Sat {
		t.Fatal("match must be satisfiable")
	}
	if m["fm.in_port"] != 3 {
		t.Fatalf("witness in_port = %d, want 3", m["fm.in_port"])
	}
	if s.Sat(cond, sym.Ne(sym.Var("fm.in_port", 16), sym.Const(16, 3))) {
		t.Fatal("match with in_port != 3 must be unsat")
	}
}

func TestCIDRMatch(t *testing.T) {
	// nw_dst = 10.0.0.0/24 (8 low bits wildcarded).
	e := NewWildcardEntry()
	wild := (openflow.FWAll &^ (openflow.FWNWDstMask | openflow.FWDLType)) | (8 << openflow.FWNWDstShift)
	e.Wildcards = sym.Const(32, uint64(wild))
	e.DLType = sym.Const(16, dataplane.EtherTypeIPv4)
	e.NWDst = sym.Const(32, 0x0a000000)

	in := dataplane.TCPProbe(1) // nw_dst 10.0.0.2
	if !sym.EvalBool(e.MatchCond(in), nil) {
		t.Fatal("10.0.0.2 must match 10.0.0.0/24")
	}
	out := in.Clone()
	out.NWDst = sym.Const(32, 0x0a000102) // 10.0.1.2
	if sym.EvalBool(e.MatchCond(out), nil) {
		t.Fatal("10.0.1.2 must not match 10.0.0.0/24")
	}
}

func TestAddrFullyWildcarded(t *testing.T) {
	e := NewWildcardEntry()
	// 63 wildcarded bits (> 32) must behave as fully wildcarded.
	wild := (openflow.FWAll &^ openflow.FWNWSrcMask) | (63 << openflow.FWNWSrcShift)
	e.Wildcards = sym.Const(32, uint64(wild))
	e.NWSrc = sym.Const(32, 0xffffffff)
	if !sym.EvalBool(e.MatchCond(dataplane.TCPProbe(1)), nil) {
		t.Fatal("63 wild bits must ignore nw_src")
	}
}

// addrCondFolded builds addrCond's disjunction as a left fold, one sym.LOr
// per case: the reference the single-call construction must equal.
func (e *Entry) addrCondFolded(shift uint32, field, pktField *sym.Expr) *sym.Expr {
	bits := e.nwWildBits(shift)
	cond := sym.Bool(false)
	cond = sym.LOr(cond, sym.Uge(bits, sym.Const(6, 32)))
	for k := 0; k < 32; k++ {
		eqHigh := sym.Eq(sym.Lshr(field, k), sym.Lshr(pktField, k))
		cond = sym.LOr(cond, sym.LAnd(sym.EqConst(bits, uint64(k)), eqHigh))
	}
	return cond
}

// TestAddrCondMatchesLeftFold pins that building the address condition
// with one LOr yields the same expression as the left fold, for symbolic
// and concrete wildcards, fields and packets, on both address fields.
func TestAddrCondMatchesLeftFold(t *testing.T) {
	newSym := func(name string, w int) *sym.Expr { return sym.Var(name, w) }
	symPkt := dataplane.SymbolicPacket(newSym, "pkt", 1)
	wilds := []*sym.Expr{sym.Var("fm.wildcards", 32)}
	for _, k := range []uint32{0, 1, 8, 24, 31, 32, 63} {
		wilds = append(wilds, sym.Const(32, uint64(k<<openflow.FWNWSrcShift|k<<openflow.FWNWDstShift)))
	}
	for _, w := range wilds {
		for _, field := range []*sym.Expr{sym.Var("fm.nw_addr", 32), sym.Const(32, 0x0a000000)} {
			for _, p := range []*dataplane.Packet{symPkt, dataplane.TCPProbe(1)} {
				e := NewWildcardEntry()
				e.Wildcards = w
				for _, c := range []struct {
					shift uint32
					pkt   *sym.Expr
				}{
					{openflow.FWNWSrcShift, p.MatchNWSrc()},
					{openflow.FWNWDstShift, p.MatchNWDst()},
				} {
					got := e.addrCond(c.shift, field, c.pkt)
					want := e.addrCondFolded(c.shift, field, c.pkt)
					if !sym.Equal(got, want) {
						t.Fatalf("wildcards %v field %v packet %v shift %d:\n got %v\nwant %v",
							w, field, c.pkt, c.shift, got, want)
					}
				}
			}
		}
	}
}

func TestSubsumesCondConcrete(t *testing.T) {
	all := NewWildcardEntry()
	specific := concreteEntry()
	if !sym.EvalBool(all.SubsumesCond(specific), nil) {
		t.Fatal("wildcard-all subsumes everything")
	}
	if sym.EvalBool(specific.SubsumesCond(all), nil) {
		t.Fatal("specific entry must not subsume wildcard-all")
	}
	if !sym.EvalBool(specific.SubsumesCond(specific), nil) {
		t.Fatal("subsumption is reflexive")
	}
}

func TestSubsumesCondSymbolic(t *testing.T) {
	// A delete with symbolic tp_dst: subsumption of the installed concrete
	// entry holds exactly when tp_dst == 2000 (given same other fields).
	installed := concreteEntry()
	del := concreteEntry()
	del.TPDst = sym.Var("del.tp_dst", 16)
	cond := del.SubsumesCond(installed)

	s := solver.New()
	r, m := s.Check(cond)
	if r != solver.Sat {
		t.Fatal("subsumption must be satisfiable")
	}
	if m["del.tp_dst"] != 2000 {
		t.Fatalf("witness tp_dst = %d, want 2000", m["del.tp_dst"])
	}
	if s.Sat(cond, sym.Ne(sym.Var("del.tp_dst", 16), sym.Const(16, 2000))) {
		t.Fatal("subsumption with tp_dst != 2000 must be unsat")
	}
}

func TestIdenticalCond(t *testing.T) {
	a, b := concreteEntry(), concreteEntry()
	if !sym.EvalBool(a.IdenticalCond(b), nil) {
		t.Fatal("identical entries must compare identical")
	}
	b.Priority = sym.Const(16, 7)
	if sym.EvalBool(a.IdenticalCond(b), nil) {
		t.Fatal("different priorities are not identical")
	}
	c := concreteEntry()
	c.Wildcards = sym.Const(32, uint64(openflow.FWAll))
	if sym.EvalBool(a.IdenticalCond(c), nil) {
		t.Fatal("different wildcard sets are not identical")
	}
}

func TestOverlapCond(t *testing.T) {
	// in_port=1 (others wild) overlaps tp_dst=2000 (others wild): a packet
	// can have both.
	a := NewWildcardEntry()
	a.Wildcards = sym.Const(32, uint64(openflow.FWAll&^openflow.FWInPort))
	a.InPort = sym.Const(16, 1)
	b := NewWildcardEntry()
	b.Wildcards = sym.Const(32, uint64(openflow.FWAll&^openflow.FWTPDst))
	b.TPDst = sym.Const(16, 2000)
	if !sym.EvalBool(a.OverlapCond(b), nil) {
		t.Fatal("disjoint-field matches overlap")
	}
	// in_port=1 vs in_port=2: no overlap.
	c := NewWildcardEntry()
	c.Wildcards = a.Wildcards
	c.InPort = sym.Const(16, 2)
	if sym.EvalBool(a.OverlapCond(c), nil) {
		t.Fatal("conflicting in_port matches cannot overlap")
	}
	// Different priorities never trigger the overlap check.
	d := NewWildcardEntry()
	d.Priority = sym.Const(16, 5)
	if sym.EvalBool(a.OverlapCond(d), nil) {
		t.Fatal("different priorities must not overlap")
	}
}

func TestTableAddRemoveCapacity(t *testing.T) {
	tbl := New(2)
	if !tbl.Add(NewWildcardEntry()) || !tbl.Add(NewWildcardEntry()) {
		t.Fatal("adds within capacity must succeed")
	}
	if tbl.Add(NewWildcardEntry()) {
		t.Fatal("add beyond capacity must fail")
	}
	if tbl.Len() != 2 {
		t.Fatalf("len %d", tbl.Len())
	}
	tbl.Remove(0)
	if tbl.Len() != 1 {
		t.Fatalf("len after remove %d", tbl.Len())
	}
}

func TestEmergencyEntriesSeparate(t *testing.T) {
	tbl := New(1)
	e := NewWildcardEntry()
	e.Emergency = true
	if !tbl.Add(e) {
		t.Fatal("emergency add must succeed")
	}
	if tbl.Len() != 0 || len(tbl.Emergency) != 1 {
		t.Fatal("emergency entries must not occupy the normal table")
	}
	// Emergency entries bypass the capacity bound.
	e2 := NewWildcardEntry()
	e2.Emergency = true
	if !tbl.Add(e2) {
		t.Fatal("second emergency add must succeed")
	}
}

// TestMatchSpecializationProperty: for a symbolic entry, specializing the
// match condition with a solver model and re-evaluating concretely must
// agree (flow table invariant from DESIGN.md §6).
func TestMatchSpecializationProperty(t *testing.T) {
	e := NewWildcardEntry()
	e.Wildcards = sym.Var("fm.wildcards", 32)
	e.TPDst = sym.Var("fm.tp_dst", 16)
	p := dataplane.TCPProbe(1)
	cond := e.MatchCond(p)

	s := solver.New()
	r, m := s.Check(cond)
	if r != solver.Sat {
		t.Fatal("some wildcard/tp_dst combination must match")
	}
	if !sym.EvalBool(cond, m) {
		t.Fatal("model does not satisfy the match condition it witnessed")
	}
	// And the negation has a witness too (e.g. exact-match entry with wrong
	// port).
	r, m2 := s.Check(sym.LNot(cond))
	if r != solver.Sat {
		t.Fatal("a non-matching combination must exist")
	}
	if sym.EvalBool(cond, m2) {
		t.Fatal("negation model still matches")
	}
}

func BenchmarkMatchCondConcrete(b *testing.B) {
	e := concreteEntry()
	p := dataplane.TCPProbe(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.MatchCond(p)
	}
}

func BenchmarkMatchCondSymbolicWildcards(b *testing.B) {
	e := NewWildcardEntry()
	e.Wildcards = sym.Var("w", 32)
	p := dataplane.TCPProbe(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.MatchCond(p)
	}
}
