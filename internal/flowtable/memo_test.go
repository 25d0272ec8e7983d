package flowtable

import (
	"fmt"
	"sync"
	"testing"

	"github.com/soft-testing/soft/internal/dataplane"
	"github.com/soft-testing/soft/internal/openflow"
	"github.com/soft-testing/soft/internal/sym"
)

// memoEntries returns the test entries the memo is checked over: concrete,
// symbolic wildcards, symbolic fields, and twins of the concrete entry
// that differ only in priority or in one match field, so a key that
// ignored an operand would serve the wrong condition.
func memoEntries() []*Entry {
	symWild := NewWildcardEntry()
	symWild.Wildcards = sym.Var("fm.wildcards", 32)
	symWild.TPDst = sym.Var("fm.tp_dst", 16)

	symFields := concreteEntry()
	symFields.Wildcards = sym.Const(32, uint64(openflow.FWAll&^(openflow.FWInPort|openflow.FWTPDst|openflow.FWNWSrcMask)))
	symFields.InPort = sym.Var("fm.in_port", 16)
	symFields.TPDst = sym.Var("fm.tp_dst", 16)
	symFields.NWSrc = sym.Var("fm.nw_src", 32)

	prio := concreteEntry()
	prio.Priority = sym.Const(16, 7)
	port := concreteEntry()
	port.TPDst = sym.Const(16, 2001)

	return []*Entry{concreteEntry(), NewWildcardEntry(), symWild, symFields, prio, port}
}

// memoPackets returns the probes MatchCond is checked over.
func memoPackets() []*dataplane.Packet {
	newSym := func(name string, w int) *sym.Expr { return sym.Var(name, w) }
	other := dataplane.TCPProbe(1)
	other.TPDst = sym.Const(16, 2001)
	return []*dataplane.Packet{
		dataplane.TCPProbe(1), dataplane.TCPProbe(2), other,
		dataplane.SymbolicPacket(newSym, "pkt", 1),
	}
}

// memoCase is one builder call: the memoized builder and its uncached
// counterpart on the same operands.
type memoCase struct {
	name           string
	memo, uncached func() *sym.Expr
}

func memoCases() []memoCase {
	var cs []memoCase
	es := memoEntries()
	for i, e := range es {
		e := e
		for j, p := range memoPackets() {
			p := p
			cs = append(cs, memoCase{fmt.Sprintf("MatchCond/e%d/p%d", i, j),
				func() *sym.Expr { return e.MatchCond(p) },
				func() *sym.Expr { return e.matchCond(p) }})
		}
		for j, b := range es {
			b := b
			name := fmt.Sprintf("e%d/e%d", i, j)
			cs = append(cs,
				memoCase{"SubsumesCond/" + name,
					func() *sym.Expr { return e.SubsumesCond(b) },
					func() *sym.Expr { return e.subsumesCond(b) }},
				memoCase{"IdenticalCond/" + name,
					func() *sym.Expr { return e.IdenticalCond(b) },
					func() *sym.Expr { return e.identicalCond(b) }},
				memoCase{"OverlapCond/" + name,
					func() *sym.Expr { return e.OverlapCond(b) },
					func() *sym.Expr { return e.overlapCond(b) }})
		}
	}
	return cs
}

// TestCondMemoMatchesUncached checks every builder's memoized result
// against a direct build, and that a repeat call returns the memo's node.
func TestCondMemoMatchesUncached(t *testing.T) {
	ResetCondMemo()
	cs := memoCases()
	first := make([]*sym.Expr, len(cs))
	for i, c := range cs {
		first[i] = c.memo()
	}
	for i, c := range cs {
		if want := c.uncached(); !sym.Equal(first[i], want) {
			t.Fatalf("%s: memoized %v, uncached %v", c.name, first[i], want)
		}
		if again := c.memo(); again != first[i] {
			t.Fatalf("%s: repeat call returned a different node", c.name)
		}
	}
}

// TestCondMemoConcurrent runs the builders from 4 goroutines on an empty
// memo: every goroutine must get the uncached condition, and all of them
// the same node.
func TestCondMemoConcurrent(t *testing.T) {
	ResetCondMemo()
	cs := memoCases()
	const workers = 4
	got := make([][]*sym.Expr, workers)
	var wg sync.WaitGroup
	for w := range got {
		got[w] = make([]*sym.Expr, len(cs))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker starts at a different case, so misses on the
			// same key race.
			for i := range cs {
				k := (i + w*len(cs)/workers) % len(cs)
				got[w][k] = cs[k].memo()
			}
		}(w)
	}
	wg.Wait()
	for i, c := range cs {
		want := c.uncached()
		for w := range got {
			if !sym.Equal(got[w][i], want) {
				t.Fatalf("%s worker %d: memoized %v, uncached %v", c.name, w, got[w][i], want)
			}
			if got[w][i] != got[0][i] {
				t.Fatalf("%s: workers 0 and %d got different nodes", c.name, w)
			}
		}
	}
}

// TestCondMemoCap fills the memo to its cap: a builder past it must still
// return the right condition, and store nothing.
func TestCondMemoCap(t *testing.T) {
	ResetCondMemo()
	defer ResetCondMemo()
	condMemo.m = make(map[condKey]*sym.Expr, condMemoCap)
	for i := 0; len(condMemo.m) < condMemoCap; i++ {
		condMemo.m[condKey{kind: condOverlap, a: condOperands{sym.Const(32, uint64(i))}}] = sym.Bool(true)
	}
	e, p := concreteEntry(), dataplane.TCPProbe(1)
	if got, want := e.MatchCond(p), e.matchCond(p); !sym.Equal(got, want) {
		t.Fatalf("past the cap: %v, want %v", got, want)
	}
	if n := len(condMemo.m); n != condMemoCap {
		t.Fatalf("memo holds %d entries past its cap %d", n, condMemoCap)
	}
}
