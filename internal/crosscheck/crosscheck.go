// Package crosscheck implements the second sub-stage of SOFT's phase 2
// (§3.4, "Intersecting input subspaces"): for each pair of result groups
// (i, j) from agents A and B with different outputs, ask the solver whether
// C_A(i) ∧ C_B(j) is satisfiable. A model is a concrete input on which the
// two agents demonstrably behave differently — an inconsistency, with the
// reproducing test case for free.
//
// When two groups share the same trace *shape* but embed different value
// expressions (e.g. one agent forwards with VLAN = x & 0xfff, the other
// with VLAN = x), the query additionally requires some embedded pair to
// evaluate differently, preserving the paper's no-false-positive property
// (§3.4) for symbolic outputs.
//
// Each of A's group conditions appears in |B| queries and each of B's in
// |A|, so every worker answers its queries on one incremental
// bitblast.Session: a group condition is encoded once per worker, behind an
// activation literal, and each query after that is one solve under
// assumptions.
package crosscheck

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/soft-testing/soft/internal/bitblast"
	"github.com/soft-testing/soft/internal/group"
	"github.com/soft-testing/soft/internal/solver"
	"github.com/soft-testing/soft/internal/sym"
)

// Inconsistency is one discovered behavioral difference.
type Inconsistency struct {
	// AIndex and BIndex identify the differing groups.
	AIndex, BIndex int
	// ACanonical and BCanonical are the two observed behaviors.
	ACanonical, BCanonical string
	// ATemplate and BTemplate are the structural trace shapes; distinct
	// inconsistencies sharing a template pair usually share one root cause
	// (§5.2: 58 reported inconsistencies, 6 distinct root causes).
	ATemplate, BTemplate string
	// Witness is a concrete input triggering the difference — the test
	// case SOFT constructs per inconsistency (§2.3).
	Witness sym.Assignment
	// ACrashed/BCrashed flag abnormal termination on either side.
	ACrashed, BCrashed bool
}

func (inc Inconsistency) String() string {
	return fmt.Sprintf("inconsistency A#%d vs B#%d\n  A: %s\n  B: %s\n  witness: %v",
		inc.AIndex, inc.BIndex, indent(inc.ACanonical), indent(inc.BCanonical), inc.Witness)
}

func indent(s string) string {
	out := ""
	for i, line := range splitLines(s) {
		if i > 0 {
			out += " | "
		}
		out += line
	}
	return out
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return append(out, s[start:])
}

// Report is the outcome of crosschecking two grouped results.
type Report struct {
	AgentA, AgentB  string
	Test            string
	Inconsistencies []Inconsistency
	// Queries counts solver calls; the §3.4 bound is
	// |RES_A| · |RES_B|.
	Queries int
	// Elapsed is the Table 3 "Inconsist. checking" time.
	Elapsed time.Duration
	// Partial reports that the time budget expired or the context was
	// cancelled before the cross product was exhausted (the paper's
	// ">28h / >=8" CS FlowMods row).
	Partial bool
	// Cancelled reports that the run's context was cancelled (Partial is
	// also set).
	Cancelled bool
	// SolverStats aggregates the solver work this crosscheck performed
	// across every worker: queries, solve time, and the sessions'
	// assumption solves and reused conjuncts. Timing fields are
	// wall-clock dependent; the counters are what `soft diff -v` reports.
	SolverStats solver.Stats
}

// RootCauses returns the number of distinct (template A, template B)
// pairs among the inconsistencies — the root-cause estimate of §5.2.
func (r *Report) RootCauses() int {
	seen := map[[2]string]bool{}
	for _, inc := range r.Inconsistencies {
		seen[[2]string{inc.ATemplate, inc.BTemplate}] = true
	}
	return len(seen)
}

// diffCond rebuilds the trace difference condition from the grouped
// (template, exprs) pairs — the serialized mirror of trace.DiffCond.
func diffCond(a, b *group.Group) *sym.Expr {
	if a.Template != b.Template || len(a.Exprs) != len(b.Exprs) {
		return sym.Bool(true)
	}
	var dis []*sym.Expr
	for i := range a.Exprs {
		if sym.Equal(a.Exprs[i], b.Exprs[i]) {
			continue
		}
		if a.Exprs[i].Width() != b.Exprs[i].Width() {
			return sym.Bool(true)
		}
		dis = append(dis, sym.Ne(a.Exprs[i], b.Exprs[i]))
	}
	if len(dis) == 0 {
		return sym.Bool(false)
	}
	return sym.LOr(dis...)
}

// Opts tunes a crosscheck run.
type Opts struct {
	// Budget, when non-zero, stops the cross product early and marks the
	// report partial.
	Budget time.Duration
	// Workers fans the independent (i, j) queries out over this many
	// goroutines (0 = GOMAXPROCS, 1 = sequential).
	Workers int
	// Progress, when set, is called as each group pair is claimed, with
	// (done, total) counts. With Workers > 1 it runs on worker goroutines
	// and must be safe for concurrent use.
	Progress func(done, total int)
}

// RunOpts crosschecks two grouped phase-1 results (which must come from
// the same test, so the symbolic input variables coincide) under ctx. Each
// (i, j) group pair is an independent satisfiability query. Every worker
// owns one bitblast.Session for the whole run, so the group conditions it
// meets are encoded once; the run's solver only counts the workers'
// queries into Report.SolverStats. Inconsistencies are reported in (i, j)
// row-major order — the same order a sequential run produces — and because
// the solver's answer and canonical model are a function of the query
// alone (not of the session or the worker), a full (non-partial) parallel
// report is identical to a sequential one.
// Cancelling ctx stops the scan at the next pair boundary and marks the
// report Partial and Cancelled.
func RunOpts(ctx context.Context, a, b *group.Result, o Opts) *Report {
	s := solver.New()
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	budget := o.Budget
	start := time.Now()
	rep := &Report{AgentA: a.Agent, AgentB: b.Agent, Test: a.Test}

	nb := len(b.Groups)
	total := len(a.Groups) * nb
	if total == 0 {
		rep.Elapsed = time.Since(start)
		return rep
	}
	if workers > total {
		workers = total
	}

	// Pairs are indexed row-major: pair k = (k/nb, k%nb). Workers claim the
	// next unclaimed pair, so with one worker the scan order — and the
	// budget cutoff prefix — matches the historical sequential loop.
	found := make([]*Inconsistency, total)
	var next, queries, done atomic.Int64
	var partial, cancelled atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := bitblast.NewSession()
			for {
				k := int(next.Add(1) - 1)
				if k >= total {
					return
				}
				if ctx.Err() != nil {
					cancelled.Store(true)
					partial.Store(true)
					return
				}
				if budget > 0 && time.Since(start) > budget {
					partial.Store(true)
					return
				}
				if o.Progress != nil {
					o.Progress(int(done.Add(1)), total)
				}
				i, j := k/nb, k%nb
				ga, gb := &a.Groups[i], &b.Groups[j]
				if ga.Canonical == gb.Canonical {
					// Identical output results are excluded from the cross
					// product (§2.3).
					continue
				}
				diff := diffCond(ga, gb)
				if diff.IsFalse() {
					continue
				}
				queries.Add(1)
				res, model := s.CheckIn(sess, ga.Cond, gb.Cond, diff)
				if res != solver.Sat {
					continue
				}
				found[k] = &Inconsistency{
					AIndex:     i,
					BIndex:     j,
					ACanonical: ga.Canonical,
					BCanonical: gb.Canonical,
					ATemplate:  ga.Template,
					BTemplate:  gb.Template,
					Witness:    model,
					ACrashed:   ga.Crashed,
					BCrashed:   gb.Crashed,
				}
			}
		}()
	}
	wg.Wait()

	for _, inc := range found {
		if inc != nil {
			rep.Inconsistencies = append(rep.Inconsistencies, *inc)
		}
	}
	rep.Queries = int(queries.Load())
	rep.Partial = partial.Load()
	rep.Cancelled = cancelled.Load()
	rep.SolverStats = s.Stats()
	rep.Elapsed = time.Since(start)
	return rep
}
