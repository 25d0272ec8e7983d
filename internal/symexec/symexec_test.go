package symexec

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"github.com/soft-testing/soft/internal/coverage"
	"github.com/soft-testing/soft/internal/solver"
	"github.com/soft-testing/soft/internal/sym"
)

// paperExample is the Packet Out handler from the paper's Figure 1
// (Agent 1): three behaviors over a 16-bit port.
func paperExample(ctx *Context) {
	p := ctx.NewSym("port", 16)
	const ofppCtrl = 0xfffd
	if ctx.Branch(sym.EqConst(p, ofppCtrl)) {
		ctx.Emit("CTRL")
	} else if ctx.Branch(sym.Ult(p, sym.Const(16, 25))) {
		ctx.Emit("FWD")
	} else {
		ctx.Emit("ERR")
	}
}

func TestPaperExamplePartitions(t *testing.T) {
	e := &Engine{WantModels: true}
	res := e.Run(paperExample)
	if len(res.Paths) != 3 {
		t.Fatalf("got %d paths, want 3", len(res.Paths))
	}
	var outs []string
	for _, p := range res.Paths {
		if len(p.Outputs) != 1 {
			t.Fatalf("path %d emitted %d outputs", p.ID, len(p.Outputs))
		}
		outs = append(outs, p.Outputs[0].(string))
		// Each path's model must satisfy its own condition.
		if !sym.EvalBool(p.Condition(), p.Model) {
			t.Fatalf("path %d model %v violates its condition", p.ID, p.Model)
		}
	}
	sort.Strings(outs)
	want := []string{"CTRL", "ERR", "FWD"}
	for i := range want {
		if outs[i] != want[i] {
			t.Fatalf("outputs %v, want %v", outs, want)
		}
	}
}

// TestPathDisjointness verifies the fundamental input-space partition
// property: distinct paths cannot share a concrete input.
func TestPathDisjointness(t *testing.T) {
	e := &Engine{}
	res := e.Run(paperExample)
	s := solver.New()
	for i := 0; i < len(res.Paths); i++ {
		for j := i + 1; j < len(res.Paths); j++ {
			both := sym.LAnd(res.Paths[i].Condition(), res.Paths[j].Condition())
			if r, m := s.Check(both); r == solver.Sat {
				t.Fatalf("paths %d and %d overlap at %v", i, j, m)
			}
		}
	}
}

// TestPathCompleteness verifies the union of path conditions covers the
// whole input space for a total handler: the negation of the disjunction is
// unsatisfiable.
func TestPathCompleteness(t *testing.T) {
	e := &Engine{}
	res := e.Run(paperExample)
	var conds []*sym.Expr
	for _, p := range res.Paths {
		conds = append(conds, p.Condition())
	}
	s := solver.New()
	if r, m := s.Check(sym.LNot(sym.LOr(conds...))); r == solver.Sat {
		t.Fatalf("input %v not covered by any path", m)
	}
}

// TestPathFeasibility verifies each reported path condition is satisfiable.
func TestPathFeasibility(t *testing.T) {
	e := &Engine{}
	res := e.Run(paperExample)
	s := solver.New()
	for _, p := range res.Paths {
		if r, _ := s.Check(p.Condition()); r != solver.Sat {
			t.Fatalf("path %d condition %v infeasible", p.ID, p.Condition())
		}
	}
}

func TestConcreteBranchDoesNotFork(t *testing.T) {
	e := &Engine{}
	res := e.Run(func(ctx *Context) {
		ctx.NewSym("x", 8) // unused symbolic input
		if ctx.Branch(sym.Eq(sym.Const(8, 1), sym.Const(8, 1))) {
			ctx.Emit("a")
		}
		if ctx.Branch(sym.Bool(false)) {
			ctx.Emit("unreachable")
		}
	})
	if len(res.Paths) != 1 {
		t.Fatalf("concrete branches must not fork: %d paths", len(res.Paths))
	}
	if len(res.Paths[0].Outputs) != 1 || res.Paths[0].Outputs[0] != "a" {
		t.Fatalf("bad outputs %v", res.Paths[0].Outputs)
	}
	if res.Paths[0].Branches != 0 {
		t.Fatalf("concrete branches must not consume decisions, got %d", res.Paths[0].Branches)
	}
}

func TestNestedBranches(t *testing.T) {
	// Two independent symbolic bits: 4 paths.
	e := &Engine{}
	res := e.Run(func(ctx *Context) {
		a := ctx.NewSym("a", 8)
		b := ctx.NewSym("b", 8)
		x := ctx.Branch(sym.Ult(a, sym.Const(8, 128)))
		y := ctx.Branch(sym.Ult(b, sym.Const(8, 128)))
		ctx.Emit(fmt.Sprintf("%v%v", x, y))
	})
	if len(res.Paths) != 4 {
		t.Fatalf("got %d paths, want 4", len(res.Paths))
	}
	seen := map[string]bool{}
	for _, p := range res.Paths {
		seen[p.Outputs[0].(string)] = true
	}
	for _, want := range []string{"truetrue", "truefalse", "falsetrue", "falsefalse"} {
		if !seen[want] {
			t.Fatalf("missing combination %s (have %v)", want, seen)
		}
	}
}

func TestCorrelatedBranchesPrune(t *testing.T) {
	// The second branch is implied by the first: only 2 paths, not 4, and
	// the implied branch must not double-count constraints.
	e := &Engine{}
	res := e.Run(func(ctx *Context) {
		a := ctx.NewSym("a", 8)
		lt10 := ctx.Branch(sym.Ult(a, sym.Const(8, 10)))
		lt20 := ctx.Branch(sym.Ult(a, sym.Const(8, 20)))
		if lt10 && !lt20 {
			ctx.Emit("impossible")
		}
	})
	if len(res.Paths) != 3 {
		// a<10 (implies a<20), a in [10,20), a>=20.
		t.Fatalf("got %d paths, want 3", len(res.Paths))
	}
	for _, p := range res.Paths {
		for _, o := range p.Outputs {
			if o == "impossible" {
				t.Fatal("explored an infeasible path")
			}
		}
	}
}

func TestCrashCapture(t *testing.T) {
	e := &Engine{WantModels: true}
	res := e.Run(func(ctx *Context) {
		p := ctx.NewSym("port", 16)
		if ctx.Branch(sym.EqConst(p, 0xfffd)) {
			ctx.Crash("segfault in packet out handler")
		}
		ctx.Emit("ok")
	})
	if len(res.Paths) != 2 {
		t.Fatalf("got %d paths, want 2", len(res.Paths))
	}
	var crash *Path
	for _, p := range res.Paths {
		if p.Crashed {
			crash = p
		}
	}
	if crash == nil {
		t.Fatal("no crash path recorded")
	}
	if crash.CrashMsg != "segfault in packet out handler" {
		t.Fatalf("crash msg %q", crash.CrashMsg)
	}
	if crash.Model["port"] != 0xfffd {
		t.Fatalf("crash model %v, want port=0xfffd", crash.Model)
	}
}

func TestAssumeConstrains(t *testing.T) {
	e := &Engine{WantModels: true}
	res := e.Run(func(ctx *Context) {
		v := ctx.NewSym("vlan", 16)
		ctx.Assume(sym.Ule(v, sym.Const(16, 0x0fff))) // structured-input pin
		if ctx.Branch(sym.EqConst(v, 0x1fff)) {
			ctx.Emit("unreachable")
		} else {
			ctx.Emit("ok")
		}
	})
	if len(res.Paths) != 1 {
		t.Fatalf("got %d paths, want 1 (assumption prunes the branch)", len(res.Paths))
	}
	if res.Paths[0].Outputs[0] != "ok" {
		t.Fatalf("bad output %v", res.Paths[0].Outputs)
	}
	if res.Paths[0].Model["vlan"] > 0x0fff {
		t.Fatalf("model %v violates assumption", res.Paths[0].Model)
	}
}

func TestAssumeContradictionAbandonsPath(t *testing.T) {
	e := &Engine{}
	res := e.Run(func(ctx *Context) {
		v := ctx.NewSym("x", 8)
		ctx.Assume(sym.EqConst(v, 1))
		ctx.Assume(sym.EqConst(v, 2))
		ctx.Emit("unreachable")
	})
	if len(res.Paths) != 0 || res.Infeasible != 1 {
		t.Fatalf("paths=%d infeasible=%d, want 0/1", len(res.Paths), res.Infeasible)
	}
}

func TestMaxDepth(t *testing.T) {
	e := &Engine{MaxDepth: 3}
	res := e.Run(func(ctx *Context) {
		x := ctx.NewSym("x", 16)
		for i := 0; i < 10; i++ {
			ctx.Branch(sym.EqConst(sym.Extract(x, i, i), 1))
		}
		ctx.Emit("done")
	})
	if res.DepthTruncated == 0 {
		t.Fatal("expected depth-truncated paths")
	}
	for _, p := range res.Paths {
		if p.Branches > 3 {
			t.Fatalf("path exceeded depth limit: %d", p.Branches)
		}
	}
}

func TestMaxPaths(t *testing.T) {
	e := &Engine{MaxPaths: 5}
	res := e.Run(func(ctx *Context) {
		x := ctx.NewSym("x", 16)
		for i := 0; i < 10; i++ {
			ctx.Branch(sym.EqConst(sym.Extract(x, i, i), 1))
		}
	})
	if len(res.Paths) != 5 {
		t.Fatalf("got %d paths, want 5", len(res.Paths))
	}
	if !res.PathsTruncated {
		t.Fatal("PathsTruncated must be set")
	}
}

func TestCoverageAccumulation(t *testing.T) {
	m := coverage.NewMap()
	bParse := m.Block("parse", 10)
	bFwd := m.Block("fwd", 5)
	bErr := m.Block("err", 5)
	brPort := m.BranchSite("port-range")

	e := &Engine{CovMap: m}
	res := e.Run(func(ctx *Context) {
		p := ctx.NewSym("port", 16)
		ctx.Cover(bParse)
		if ctx.BranchSite(brPort, sym.Ult(p, sym.Const(16, 25))) {
			ctx.Cover(bFwd)
		} else {
			ctx.Cover(bErr)
		}
	})
	if len(res.Paths) != 2 {
		t.Fatalf("got %d paths", len(res.Paths))
	}
	if got := res.Cov.InstructionPct(); got != 100 {
		t.Fatalf("cumulative instruction coverage %v, want 100", got)
	}
	if got := res.Cov.BranchPct(); got != 100 {
		t.Fatalf("cumulative branch coverage %v, want 100", got)
	}
	// Per-path coverage is partial.
	for _, p := range res.Paths {
		if p.Cov.InstructionPct() == 100 {
			t.Fatal("a single path cannot cover both arms")
		}
	}
}

func TestWorkerCountsExploreSamePartition(t *testing.T) {
	// §4.1: the search order has small impact because exploration is
	// exhaustive. Every worker count — each a different interleaving of
	// pops across workers — must find the same 3 partitions of the paper
	// example.
	for _, workers := range []int{1, 2, 4, 8} {
		res := (&Engine{Workers: workers}).Run(paperExample)
		if len(res.Paths) != 3 {
			t.Errorf("workers=%d found %d paths, want 3", workers, len(res.Paths))
		}
		outs := map[string]bool{}
		for _, p := range res.Paths {
			outs[p.Outputs[0].(string)] = true
		}
		if !outs["CTRL"] || !outs["FWD"] || !outs["ERR"] {
			t.Errorf("workers=%d missed behaviors: %v", workers, outs)
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	// Runs at every worker count must produce identical path conditions in
	// identical order.
	run := func(workers int) []string {
		res := (&Engine{Workers: workers}).Run(paperExample)
		var out []string
		for _, p := range res.Paths {
			out = append(out, p.Condition().String())
		}
		return out
	}
	a := run(1)
	for _, workers := range []int{1, 2, 4, 8} {
		b := run(workers)
		if len(a) != len(b) {
			t.Fatalf("workers=%d: path counts differ: %d vs %d", workers, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("workers=%d: path %d differs:\n%s\n%s", workers, i, a[i], b[i])
			}
		}
	}
}

func TestInputRegistry(t *testing.T) {
	e := &Engine{}
	res := e.Run(func(ctx *Context) {
		ctx.NewSym("a", 8)
		ctx.NewSym("b", 16)
		ctx.Branch(sym.Ult(ctx.NewSym("a", 8), sym.Const(8, 4)))
	})
	if len(res.Inputs) != 2 {
		t.Fatalf("inputs %v", res.Inputs)
	}
	if res.Inputs["b"].Width() != 16 {
		t.Fatal("input width lost")
	}
}

// TestWidthConflictPanics: a handler bug panics out of Run on the caller's
// goroutine — also when it fires on a parallel worker, where an unrecovered
// panic would kill the process — naming the path it fired on.
func TestWidthConflictPanics(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			defer func() {
				r := recover()
				p, ok := r.(*pathPanic)
				if !ok {
					t.Fatalf("recovered %T %v, want *pathPanic", r, r)
				}
				if got := FormatDecisions(p.decisions); got != "t" {
					t.Errorf("panic names path %q, want %q", got, "t")
				}
				if msg := p.Error(); !strings.Contains(msg, "panic on path t:") || !strings.Contains(msg, `input "a" redeclared`) {
					t.Errorf("panic message lacks the path or the cause: %s", msg)
				}
			}()
			(&Engine{Workers: workers}).Run(func(ctx *Context) {
				x := ctx.NewSym("x", 8)
				if ctx.Branch(sym.Ult(x, sym.Const(8, 10))) {
					ctx.NewSym("a", 8)
					ctx.NewSym("a", 16)
				}
			})
		})
	}
}

// TestExponentialPathFamily checks the engine handles a path-explosion-
// shaped workload (2^8 paths) exactly.
func TestExponentialPathFamily(t *testing.T) {
	e := &Engine{}
	res := e.Run(func(ctx *Context) {
		x := ctx.NewSym("x", 8)
		n := 0
		for i := 0; i < 8; i++ {
			if ctx.Branch(sym.EqConst(sym.Extract(x, i, i), 1)) {
				n++
			}
		}
		ctx.Emit(n)
	})
	if len(res.Paths) != 256 {
		t.Fatalf("got %d paths, want 256", len(res.Paths))
	}
	// popcount distribution sanity: exactly C(8,k) paths emit k.
	counts := map[int]int{}
	for _, p := range res.Paths {
		counts[p.Outputs[0].(int)]++
	}
	binom := []int{1, 8, 28, 56, 70, 56, 28, 8, 1}
	for k, want := range binom {
		if counts[k] != want {
			t.Fatalf("popcount %d: %d paths, want %d", k, counts[k], want)
		}
	}
}

func BenchmarkExplorePaperExample(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := &Engine{}
		res := e.Run(paperExample)
		if len(res.Paths) != 3 {
			b.Fatal("bad partition")
		}
	}
}

func BenchmarkExplore256Paths(b *testing.B) {
	h := func(ctx *Context) {
		x := ctx.NewSym("x", 8)
		for i := 0; i < 8; i++ {
			ctx.Branch(sym.EqConst(sym.Extract(x, i, i), 1))
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := &Engine{}
		if res := e.Run(h); len(res.Paths) != 256 {
			b.Fatal("bad path count")
		}
	}
}
