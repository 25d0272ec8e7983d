package symexec

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/soft-testing/soft/internal/coverage"
	"github.com/soft-testing/soft/internal/sym"
)

// fingerprint renders everything observable about a Result into one string,
// so two runs can be compared for byte-identical output.
func fingerprint(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "paths=%d infeasible=%d depthTrunc=%d truncated=%t queries=%d\n",
		len(res.Paths), res.Infeasible, res.DepthTruncated, res.PathsTruncated, res.BranchQueries)
	var inputs []string
	for name, v := range res.Inputs {
		inputs = append(inputs, fmt.Sprintf("%s:%d", name, v.Width()))
	}
	sort.Strings(inputs)
	fmt.Fprintf(&b, "inputs=%v\n", inputs)
	if res.Cov != nil {
		fmt.Fprintf(&b, "cov=%.4f/%.4f\n", res.Cov.InstructionPct(), res.Cov.BranchPct())
	}
	for _, p := range res.Paths {
		fmt.Fprintf(&b, "path %d dec=%v cond=%s outputs=%v crashed=%t msg=%q branches=%d",
			p.ID, p.Decisions, p.Condition().String(), p.Outputs, p.Crashed, p.CrashMsg, p.Branches)
		if p.Model != nil {
			var kv []string
			for k, v := range p.Model {
				kv = append(kv, fmt.Sprintf("%s=%d", k, v))
			}
			sort.Strings(kv)
			fmt.Fprintf(&b, " model=%v", kv)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// parallelHandlers is the handler zoo the determinism tests sweep: every
// engine outcome class is represented (fork, no-fork, crash, infeasible
// assumption, correlated prune).
func parallelHandlers() map[string]Handler {
	return map[string]Handler{
		"paper-example": paperExample,
		"exponential-256": func(ctx *Context) {
			x := ctx.NewSym("x", 8)
			n := 0
			for i := 0; i < 8; i++ {
				if ctx.Branch(sym.EqConst(sym.Extract(x, i, i), 1)) {
					n++
				}
			}
			ctx.Emit(n)
		},
		"crash": func(ctx *Context) {
			p := ctx.NewSym("port", 16)
			if ctx.Branch(sym.EqConst(p, 0xfffd)) {
				ctx.Crash("segfault")
			}
			ctx.Emit("ok")
		},
		"assume-infeasible": func(ctx *Context) {
			v := ctx.NewSym("x", 8)
			if ctx.Branch(sym.Ult(v, sym.Const(8, 16))) {
				ctx.Assume(sym.EqConst(v, 200)) // contradicts the branch
				ctx.Emit("unreachable")
			} else {
				ctx.Emit("hi")
			}
		},
		"correlated": func(ctx *Context) {
			a := ctx.NewSym("a", 8)
			lt10 := ctx.Branch(sym.Ult(a, sym.Const(8, 10)))
			lt20 := ctx.Branch(sym.Ult(a, sym.Const(8, 20)))
			ctx.Emit(fmt.Sprintf("%v%v", lt10, lt20))
		},
	}
}

// TestParallelMatchesSequential is the core determinism property: for
// exhaustive exploration, any worker count produces a byte-identical Result,
// with models on and off.
func TestParallelMatchesSequential(t *testing.T) {
	for name, h := range parallelHandlers() {
		t.Run(name, func(t *testing.T) {
			for _, models := range []bool{true, false} {
				seq := (&Engine{Workers: 1, WantModels: models}).Run(h)
				want := fingerprint(seq)
				for _, workers := range []int{1, 2, 4, 8} {
					par := (&Engine{Workers: workers, WantModels: models}).Run(h)
					if got := fingerprint(par); got != want {
						t.Fatalf("models=%t workers=%d diverged from one worker:\n--- one worker\n%s--- workers=%d\n%s",
							models, workers, want, workers, got)
					}
				}
			}
		})
	}
}

// TestParallelCoverage checks per-path and cumulative coverage survive the
// parallel merge.
func TestParallelCoverage(t *testing.T) {
	m := coverage.NewMap()
	bFwd := m.Block("fwd", 5)
	bErr := m.Block("err", 5)
	brPort := m.BranchSite("port-range")
	h := func(ctx *Context) {
		p := ctx.NewSym("port", 16)
		if ctx.BranchSite(brPort, sym.Ult(p, sym.Const(16, 25))) {
			ctx.Cover(bFwd)
		} else {
			ctx.Cover(bErr)
		}
	}
	for _, workers := range []int{1, 4} {
		res := (&Engine{Workers: workers, CovMap: m}).Run(h)
		if len(res.Paths) != 2 {
			t.Fatalf("workers=%d: %d paths", workers, len(res.Paths))
		}
		if got := res.Cov.InstructionPct(); got != 100 {
			t.Fatalf("workers=%d: cumulative instruction coverage %v", workers, got)
		}
		if got := res.Cov.BranchPct(); got != 100 {
			t.Fatalf("workers=%d: cumulative branch coverage %v", workers, got)
		}
		for _, p := range res.Paths {
			if p.Cov.InstructionPct() == 100 {
				t.Fatalf("workers=%d: a single path cannot cover both arms", workers)
			}
		}
	}
}

// TestParallelMaxPaths: the cap keeps exactly MaxPaths paths and flags
// truncation, whatever the worker count.
func TestParallelMaxPaths(t *testing.T) {
	h := func(ctx *Context) {
		x := ctx.NewSym("x", 16)
		for i := 0; i < 10; i++ {
			ctx.Branch(sym.EqConst(sym.Extract(x, i, i), 1))
		}
	}
	for _, workers := range []int{2, 4, 8} {
		res := (&Engine{Workers: workers, MaxPaths: 5}).Run(h)
		if len(res.Paths) != 5 {
			t.Fatalf("workers=%d: got %d paths, want 5", workers, len(res.Paths))
		}
		if !res.PathsTruncated {
			t.Fatalf("workers=%d: PathsTruncated must be set", workers)
		}
	}
}

// TestParallelMaxDepth: depth truncation counts match sequential.
func TestParallelMaxDepth(t *testing.T) {
	h := func(ctx *Context) {
		x := ctx.NewSym("x", 16)
		for i := 0; i < 10; i++ {
			ctx.Branch(sym.EqConst(sym.Extract(x, i, i), 1))
		}
		ctx.Emit("done")
	}
	seq := (&Engine{Workers: 1, MaxDepth: 3}).Run(h)
	par := (&Engine{Workers: 4, MaxDepth: 3}).Run(h)
	if seq.DepthTruncated == 0 {
		t.Fatal("expected depth-truncated paths")
	}
	if fingerprint(seq) != fingerprint(par) {
		t.Fatalf("depth-limited runs diverged:\n--- seq\n%s--- par\n%s",
			fingerprint(seq), fingerprint(par))
	}
}

// TestParallelRepeatedRuns hammers the work-stealing frontier: many
// back-to-back parallel explorations of a wide tree must all agree. Run
// with -race this doubles as the engine's data-race test.
func TestParallelRepeatedRuns(t *testing.T) {
	h := func(ctx *Context) {
		x := ctx.NewSym("x", 16)
		n := 0
		for i := 0; i < 10; i++ {
			if ctx.Branch(sym.EqConst(sym.Extract(x, i, i), 1)) {
				n++
			}
		}
		ctx.Emit(n)
	}
	want := fingerprint((&Engine{Workers: 1}).Run(h))
	runs := 5
	if testing.Short() {
		runs = 2
	}
	for i := 0; i < runs; i++ {
		res := (&Engine{Workers: 8}).Run(h)
		if len(res.Paths) != 1024 {
			t.Fatalf("run %d: %d paths, want 1024", i, len(res.Paths))
		}
		if got := fingerprint(res); got != want {
			t.Fatalf("run %d diverged from sequential", i)
		}
	}
}

// TestConcurrentRunsShareEngine: an Engine holds no per-run state, so
// concurrent Run calls on one shared Engine, even at one worker, each
// produce the solo result. Under -race this fails if a run writes to the
// Engine.
func TestConcurrentRunsShareEngine(t *testing.T) {
	for name, h := range parallelHandlers() {
		t.Run(name, func(t *testing.T) {
			e := &Engine{Workers: 1, WantModels: true}
			want := fingerprint(e.Run(h))
			got := make([]string, 8)
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					got[i] = fingerprint(e.Run(h))
				}(i)
			}
			wg.Wait()
			for i, g := range got {
				if g != want {
					t.Fatalf("concurrent run %d diverged from the solo run:\n--- solo\n%s--- run\n%s", i, want, g)
				}
			}
		})
	}
}

// TestWorkerSeeds: worker 0 keeps the base seed 1, so a one-worker run pops
// exactly newInterleaved(1)'s order, and every worker's random picks follow
// a seed of its own.
func TestWorkerSeeds(t *testing.T) {
	if got := workerSeed(1, 0); got != 1 {
		t.Fatalf("workerSeed(1, 0) = %d, want 1", got)
	}
	seen := map[int64]int{}
	for w := 0; w < 64; w++ {
		s := workerSeed(1, w)
		if prev, dup := seen[s]; dup {
			t.Fatalf("workers %d and %d share seed %d", prev, w, s)
		}
		seen[s] = w
	}
}

// TestInterleavedLenExact: Len must report the real item count after both
// coverage-guided and random pops (the engine's rebalance and leftover
// accounting depend on it).
func TestInterleavedLenExact(t *testing.T) {
	s := newInterleaved(1)
	for i := 0; i < 4; i++ {
		s.Push(&workItem{decisions: []bool{true}, site: -1})
	}
	for want := 3; want >= 0; want-- {
		if _, ok := s.Pop(nil); !ok {
			t.Fatalf("pop failed with %d items left", want+1)
		}
		if got := s.Len(); got != want {
			t.Fatalf("Len() = %d after pop, want %d", got, want)
		}
	}
	if _, ok := s.Pop(nil); ok {
		t.Fatal("pop succeeded on an empty frontier")
	}
}

// TestLessDecisions pins the canonical order: lexicographic, false < true,
// prefix first.
func TestLessDecisions(t *testing.T) {
	f, tr := false, true
	cases := []struct {
		a, b []bool
		want bool
	}{
		{nil, nil, false},
		{nil, []bool{f}, true},
		{[]bool{f}, nil, false},
		{[]bool{f}, []bool{tr}, true},
		{[]bool{tr}, []bool{f}, false},
		{[]bool{f, tr}, []bool{tr}, true},
		{[]bool{f, tr}, []bool{f, f}, false},
		{[]bool{f, f}, []bool{f, tr}, true},
		{[]bool{f, f}, []bool{f, f, tr}, true},
	}
	for _, c := range cases {
		if got := LessDecisions(c.a, c.b); got != c.want {
			t.Errorf("LessDecisions(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}
