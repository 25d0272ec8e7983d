package harness

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"github.com/soft-testing/soft/internal/agents"
	"github.com/soft-testing/soft/internal/agents/modified"
	"github.com/soft-testing/soft/internal/agents/ovs"
	"github.com/soft-testing/soft/internal/agents/refswitch"
	"github.com/soft-testing/soft/internal/openflow"
	"github.com/soft-testing/soft/internal/solver"
	"github.com/soft-testing/soft/internal/sym"
)

func TestTableOneSuiteComplete(t *testing.T) {
	names := map[string]bool{}
	for _, tt := range Tests() {
		names[tt.Name] = true
	}
	for _, want := range []string{
		"Packet Out", "Stats Request", "Set Config", "FlowMod",
		"Eth FlowMod", "CS FlowMods", "Concrete", "Short Symb",
	} {
		if !names[want] {
			t.Errorf("missing Table 1 test %q", want)
		}
	}
	if len(names) != 8 {
		t.Errorf("suite has %d tests, want 8", len(names))
	}
}

func TestInputsDeterministic(t *testing.T) {
	// The engine re-executes Inputs per path; two invocations must build
	// byte-identical buffers and identical variable names.
	for _, tt := range Tests() {
		names1 := map[string]int{}
		ns1 := func(n string, w int) *sym.Expr { names1[n] = w; return sym.Var(n, w) }
		in1 := tt.Inputs(ns1)
		names2 := map[string]int{}
		ns2 := func(n string, w int) *sym.Expr { names2[n] = w; return sym.Var(n, w) }
		in2 := tt.Inputs(ns2)
		if len(in1) != len(in2) {
			t.Fatalf("%s: input count varies", tt.Name)
		}
		if len(names1) != len(names2) {
			t.Fatalf("%s: symbolic variable sets vary", tt.Name)
		}
		for n, w := range names1 {
			if names2[n] != w {
				t.Fatalf("%s: variable %s width varies", tt.Name, n)
			}
		}
	}
}

func TestStructuredInputsPinTypeAndLength(t *testing.T) {
	// §3.2.1: message type and length must be concrete in every structured
	// test (Short Symb is the deliberate exception).
	for _, tt := range Tests() {
		if tt.Name == "Short Symb" {
			continue
		}
		for i, in := range tt.Inputs(sym.Var) {
			if in.Msg == nil {
				continue
			}
			if !in.Msg.U8(1).IsConst() {
				t.Errorf("%s input %d: symbolic message type", tt.Name, i)
			}
			if !in.Msg.U16(2).IsConst() {
				t.Errorf("%s input %d: symbolic length", tt.Name, i)
			}
		}
	}
}

func TestExplorePacketOutPartition(t *testing.T) {
	tt, _ := TestByName("Packet Out")
	r := Explore(refswitch.New(), tt, Options{WantModels: true})
	if len(r.Paths) < 20 {
		t.Fatalf("Packet Out explored only %d paths", len(r.Paths))
	}
	// The partition must contain the crash class (Packet Out to
	// OFPP_CONTROLLER) with a faithful witness.
	var crash *PathResult
	for i := range r.Paths {
		if r.Paths[i].Crashed {
			p := &r.Paths[i]
			if p.Model["po.out.port"] == uint64(openflow.PortController) ||
				p.Model["po.act0.type"] == uint64(openflow.ActSetVLANVID) {
				crash = p
				break
			}
		}
	}
	if crash == nil {
		t.Fatal("no crash path with a controller-port or set-vlan witness")
	}
}

func TestExplorePathsDisjointAndFeasible(t *testing.T) {
	// Core §3 invariant on a mid-size test: path conditions are pairwise
	// unsatisfiable and individually satisfiable.
	tt, _ := TestByName("Stats Request")
	r := Explore(refswitch.New(), tt, Options{})
	s := solver.New()
	for i := range r.Paths {
		if !s.Sat(r.Paths[i].Cond) {
			t.Fatalf("path %d infeasible", i)
		}
		for j := i + 1; j < len(r.Paths); j++ {
			if s.Sat(r.Paths[i].Cond, r.Paths[j].Cond) {
				t.Fatalf("paths %d and %d overlap", i, j)
			}
		}
	}
}

func TestExploreModelsReplayToSameTrace(t *testing.T) {
	// No-false-positive foundation: re-running the agent on a path's own
	// model must reproduce that path's canonical trace.
	tt, _ := TestByName("Stats Request")
	a := refswitch.New()
	r := Explore(a, tt, Options{WantModels: true})
	for _, p := range r.Paths {
		rr := Explore(a, concretizedTest(tt, p.Model), Options{})
		if len(rr.Paths) != 1 {
			t.Fatalf("concretized run explored %d paths", len(rr.Paths))
		}
		// The symbolic trace renders expressions; the concrete replay
		// renders their values. Equality means: same structure, and every
		// embedded expression evaluates (under the path's model) to the
		// replay's concrete value.
		got := rr.Paths[0]
		if got.Template != p.Template {
			t.Fatalf("replay shape differs:\n got %s\nwant %s", got.Template, p.Template)
		}
		ge, we := got.Exprs, p.Exprs
		if len(ge) != len(we) {
			t.Fatalf("replay expr count differs: %d vs %d", len(ge), len(we))
		}
		for k := range we {
			want := sym.Eval(we[k], p.Model)
			if gv, ok := ge[k].ConstVal(); !ok || gv != want {
				t.Fatalf("replay expr %d = %v, want %#x under model", k, ge[k], want)
			}
		}
	}
}

// concretizedTest pins every symbolic variable of t to its model value.
func concretizedTest(t Test, model sym.Assignment) Test {
	return Test{
		Name: t.Name + " (concrete)", Desc: t.Desc, MsgCount: t.MsgCount,
		Inputs: func(NewSymFn) []Input {
			return t.Inputs(func(name string, w int) *sym.Expr {
				return sym.Const(w, model[name])
			})
		},
	}
}

func TestConcreteTestSinglePath(t *testing.T) {
	tt, _ := TestByName("Concrete")
	for _, a := range []interface {
		Name() string
	}{} {
		_ = a
	}
	r := Explore(refswitch.New(), tt, Options{})
	if len(r.Paths) != 1 {
		t.Fatalf("Concrete must have exactly 1 path, got %d", len(r.Paths))
	}
	if n := r.Paths[0].Cond.Size(); n != 0 {
		t.Fatalf("Concrete path carries constraints: %d", n)
	}
}

func TestOVSPartitionsFinerThanRef(t *testing.T) {
	// Table 2 shape: OVS's finer validation yields more paths on the
	// packet-affecting tests.
	for _, name := range []string{"Packet Out", "Eth FlowMod"} {
		tt, _ := TestByName(name)
		ra := Explore(refswitch.New(), tt, Options{})
		rb := Explore(ovs.New(), tt, Options{})
		if len(rb.Paths) <= len(ra.Paths) {
			t.Errorf("%s: ovs %d paths not finer than ref %d", name, len(rb.Paths), len(ra.Paths))
		}
	}
}

// TestResultsRoundTrip: for every Table 1 test on ref and ovs, at
// one and two workers, ReadResults∘Write gives back the explored Result on
// every written field, and the run counters, which are not written, read
// zero.
func TestResultsRoundTrip(t *testing.T) {
	for _, tt := range Tests() {
		for _, a := range []agents.Agent{refswitch.New(), ovs.New()} {
			for _, workers := range []int{1, 2} {
				r := Explore(a, tt, Options{WantModels: true, Workers: workers})
				var buf bytes.Buffer
				if err := r.Write(&buf); err != nil {
					t.Fatal(err)
				}
				got, err := ReadResults(&buf)
				if err != nil {
					t.Fatalf("%s / %s, %d workers: %v", a.Name(), tt.Name, workers, err)
				}
				if err := roundTripMismatch(got, r); err != nil {
					t.Fatalf("%s / %s, %d workers: %v", a.Name(), tt.Name, workers, err)
				}
				if got.Infeasible != 0 || got.DepthTruncated != 0 || got.BranchQueries != 0 || got.SolverStats != (solver.Stats{}) {
					t.Fatalf("%s / %s: run counters survived the round trip: %d %d %d %+v", a.Name(), tt.Name,
						got.Infeasible, got.DepthTruncated, got.BranchQueries, got.SolverStats)
				}
			}
		}
	}
}

// TestResultsRewriteByteIdentical: Write∘ReadResults is the identity on
// the bytes of a real multi-path result, and the sharing file is smaller
// than the tree text (WriteTree) that holds every condition's String.
func TestResultsRewriteByteIdentical(t *testing.T) {
	tt, _ := TestByName("Packet Out")
	r := Explore(refswitch.New(), tt, Options{WantModels: true})
	if len(r.Paths) != 146 {
		t.Fatalf("Packet Out on ref: %d paths, want 146", len(r.Paths))
	}
	var first bytes.Buffer
	if err := r.Write(&first); err != nil {
		t.Fatal(err)
	}
	got, err := ReadResults(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := got.Write(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("Write∘ReadResults changed the bytes of a Packet Out result")
	}
	var tree bytes.Buffer
	if err := got.WriteTree(&tree); err != nil {
		t.Fatal(err)
	}
	if first.Len() >= tree.Len() {
		t.Fatalf("sharing file is %d bytes, tree text %d", first.Len(), tree.Len())
	}
	for i := range got.Paths {
		cond := "cond " + r.Paths[i].Cond.String() + "\n"
		if !bytes.Contains(tree.Bytes(), []byte(cond)) {
			t.Fatalf("path %d: condition text missing from the tree text", i)
		}
	}
}

func TestReadResultsRejectsGarbage(t *testing.T) {
	if _, err := ReadResults(strings.NewReader("not a results file")); err == nil {
		t.Fatal("expected magic error")
	}
	if _, err := ReadResults(strings.NewReader("soft-results v1\n")); err == nil {
		t.Fatal("expected truncation error")
	}
}

// TestReproduceBuildsValidWire checks every Packet Out reproducer's framing
// at the OpenFlow 1.0 spec offsets: header version, type and length, and
// an action list whose ofp_action_header lengths end exactly at
// actions_len. The witnesses of malformed-action paths must pass too: the
// action's symbolic type may demand another length, but the framing stays
// concrete.
func TestReproduceBuildsValidWire(t *testing.T) {
	tt, _ := TestByName("Packet Out")
	var paths []PathResult
	for _, a := range []agents.Agent{refswitch.New(), ovs.New()} {
		paths = append(paths, Explore(a, tt, Options{WantModels: true}).Paths...)
	}
	for _, p := range paths {
		wires := Reproduce(tt, p.Model)
		if len(wires) != 1 {
			t.Fatalf("expected 1 message, got %d", len(wires))
		}
		w := wires[0]
		if len(w) < 16 {
			t.Fatalf("path %d: %d-byte wire is shorter than ofp_packet_out", p.ID, len(w))
		}
		if w[0] != 0x01 || w[1] != 13 || int(binary.BigEndian.Uint16(w[2:4])) != len(w) {
			t.Fatalf("path %d: header % x (want version 1, type 13, length %d)", p.ID, w[:4], len(w))
		}
		actionsLen := int(binary.BigEndian.Uint16(w[14:16]))
		if 16+actionsLen > len(w) {
			t.Fatalf("path %d: actions_len %d overruns the %d-byte wire", p.ID, actionsLen, len(w))
		}
		for off := 16; off < 16+actionsLen; {
			n := int(binary.BigEndian.Uint16(w[off+2 : off+4]))
			if n == 0 || n%8 != 0 || off+n > 16+actionsLen {
				t.Fatalf("path %d: action at %d has length %d inside actions_len %d", p.ID, off, n, actionsLen)
			}
			off += n
		}
	}
}

func TestModifiedSwitchDiffersFromRef(t *testing.T) {
	// The Modified Switch must behave differently on Packet Out (flood
	// rejection + port-zero code) — the §5.1.1 detectable changes.
	tt, _ := TestByName("Packet Out")
	ra := Explore(refswitch.New(), tt, Options{})
	rb := Explore(modified.New(), tt, Options{})
	canon := func(r *Result) map[string]bool {
		out := map[string]bool{}
		for _, p := range r.Paths {
			out[p.Canonical] = true
		}
		return out
	}
	ca, cb := canon(ra), canon(rb)
	diff := 0
	for c := range ca {
		if !cb[c] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("modified switch produced identical behaviors on Packet Out")
	}
}

func TestSetConfigAgentsAgree(t *testing.T) {
	// Table 3: Set Config shows zero inconsistencies — both agents'
	// observable behavior must coincide on the whole input space.
	tt, _ := TestByName("Set Config")
	ra := Explore(refswitch.New(), tt, Options{})
	rb := Explore(ovs.New(), tt, Options{})
	canonSet := func(r *Result) map[string]bool {
		out := map[string]bool{}
		for _, p := range r.Paths {
			out[p.Canonical] = true
		}
		return out
	}
	ca, cb := canonSet(ra), canonSet(rb)
	for c := range ca {
		if !cb[c] {
			t.Fatalf("behavior %q only in ref", c)
		}
	}
	for c := range cb {
		if !ca[c] {
			t.Fatalf("behavior %q only in ovs", c)
		}
	}
}

func BenchmarkExplorePacketOutRef(b *testing.B) {
	tt, _ := TestByName("Packet Out")
	a := refswitch.New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Explore(a, tt, Options{})
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
