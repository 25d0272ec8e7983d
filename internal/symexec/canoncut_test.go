package symexec

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/soft-testing/soft/internal/sym"
)

// pathFingerprint renders just the path list (canonical order, decision
// vectors, outputs) — the part of a Result canonical truncation promises to
// pin.
func pathFingerprint(res *Result) string {
	var b strings.Builder
	for _, p := range res.Paths {
		b.WriteString(fmtDecisions(p.Decisions))
		b.WriteByte('\n')
	}
	return b.String()
}

func fmtDecisions(d []bool) string {
	var b strings.Builder
	for _, v := range d {
		if v {
			b.WriteByte('t')
		} else {
			b.WriteByte('f')
		}
	}
	return b.String()
}

// TestCanonicalCutDeterminism is the satellite property behind deterministic
// MaxPaths truncation: for every handler, cap, and worker count, a
// CanonicalCut run keeps exactly the cap's worth of canonically smallest
// paths — the same set a full exploration would sort first.
func TestCanonicalCutDeterminism(t *testing.T) {
	for name, h := range parallelHandlers() {
		h := h
		t.Run(name, func(t *testing.T) {
			full := (&Engine{Workers: 1, WantModels: true}).Run(h)
			if len(full.Paths) < 3 {
				t.Skipf("handler explores only %d paths", len(full.Paths))
			}
			cap := len(full.Paths) / 2
			wantPaths := fingerprintPrefix(full, cap)

			for _, workers := range []int{1, 2, 4, 8} {
				eng := &Engine{
					Workers: workers, WantModels: true,
					MaxPaths: cap, CanonicalCut: true,
				}
				res := eng.Run(h)
				if !res.PathsTruncated {
					t.Fatalf("workers=%d: canonical cut did not mark truncation", workers)
				}
				if len(res.Paths) != cap {
					t.Fatalf("workers=%d: kept %d paths, want %d", workers, len(res.Paths), cap)
				}
				if got := pathFingerprint(res); got != wantPaths {
					t.Fatalf("workers=%d: canonical cut kept\n%s\nwant\n%s",
						workers, got, wantPaths)
				}
			}
		})
	}
}

// fingerprintPrefix renders the first n paths of a full run — the
// canonically smallest n, since Results are already canonically ordered.
func fingerprintPrefix(full *Result, n int) string {
	var b strings.Builder
	for _, p := range full.Paths[:n] {
		b.WriteString(fmtDecisions(p.Decisions))
		b.WriteByte('\n')
	}
	return b.String()
}

// TestCanonicalCutExhaustive: a canonical cap larger than the tree changes
// nothing — the run is exhaustive, unmarked, and byte-identical to an
// uncapped run.
func TestCanonicalCutExhaustive(t *testing.T) {
	h := parallelHandlers()["exponential-256"]
	want := fingerprint((&Engine{Workers: 1}).Run(h))
	res := (&Engine{Workers: 4, MaxPaths: 100000, CanonicalCut: true}).Run(h)
	if res.PathsTruncated {
		t.Fatal("exhaustive canonical run marked truncated")
	}
	if got := fingerprint(res); got != want {
		t.Fatalf("canonical cut altered an exhaustive run:\n%s\nwant\n%s", got, want)
	}
}

// TestCanonicalCutProgress: under a canonical cut, Progress counts paths
// kept, not paths completed — the cut discards completed paths that sort
// after the MaxPaths smallest — so no report exceeds the cap and the last
// one equals the kept count.
func TestCanonicalCutProgress(t *testing.T) {
	h := func(ctx *Context) {
		x := ctx.NewSym("x", 8)
		for i := 0; i < 6; i++ {
			ctx.Branch(sym.EqConst(sym.Extract(x, i, i), 1))
		}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		var mu sync.Mutex
		var most int
		eng := &Engine{
			Workers: workers, MaxPaths: 10, CanonicalCut: true,
			Progress: func(n int) {
				mu.Lock()
				most = max(most, n)
				mu.Unlock()
			},
		}
		res := eng.Run(h)
		if len(res.Paths) != 10 {
			t.Fatalf("workers=%d: kept %d paths, want 10", workers, len(res.Paths))
		}
		if most != len(res.Paths) {
			t.Fatalf("workers=%d: Progress reached %d, want the %d kept paths", workers, most, len(res.Paths))
		}
	}
}

// TestPrefixSeededExploration: exploring with Engine.Prefix must yield
// exactly the full run's paths that extend the prefix — the invariant
// distributed shards rely on.
func TestPrefixSeededExploration(t *testing.T) {
	for name, h := range parallelHandlers() {
		h := h
		t.Run(name, func(t *testing.T) {
			full := (&Engine{Workers: 1, WantModels: true}).Run(h)

			// Collect subtree roots the way the coordinator does: forks
			// deeper than the shard depth.
			const depth = 1
			var prefixes [][]bool
			local := (&Engine{
				Workers: 1, WantModels: true,
				ShardDepth: depth,
				ShardSink:  func(p []bool) { prefixes = append(prefixes, p) },
			}).Run(h)

			var merged []*Path
			merged = append(merged, local.Paths...)
			for _, p := range prefixes {
				sub := (&Engine{Workers: 2, WantModels: true, Prefix: p}).Run(h)
				for _, sp := range sub.Paths {
					if len(sp.Decisions) < len(p) {
						t.Fatalf("prefix %v: path %v escapes the subtree", p, sp.Decisions)
					}
					for i := range p {
						if sp.Decisions[i] != p[i] {
							t.Fatalf("prefix %v: path %v escapes the subtree", p, sp.Decisions)
						}
					}
				}
				merged = append(merged, sub.Paths...)
			}
			canonicalizePaths(merged)

			if len(merged) != len(full.Paths) {
				t.Fatalf("split+prefix explored %d paths, full run %d", len(merged), len(full.Paths))
			}
			for i := range merged {
				if fmtDecisions(merged[i].Decisions) != fmtDecisions(full.Paths[i].Decisions) {
					t.Fatalf("path %d: %v vs %v", i, merged[i].Decisions, full.Paths[i].Decisions)
				}
				if sym.LAnd(merged[i].PC...).String() != sym.LAnd(full.Paths[i].PC...).String() {
					t.Fatalf("path %d: condition differs", i)
				}
				if !reflect.DeepEqual(merged[i].Model, full.Paths[i].Model) {
					t.Fatalf("path %d: model %v, full run %v", i, merged[i].Model, full.Paths[i].Model)
				}
			}
		})
	}
}
