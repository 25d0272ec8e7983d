// Package group implements the first sub-stage of SOFT's second phase
// (§3.4, "Grouping paths by output results"): all path conditions that
// produced the same normalized output trace are merged into one group whose
// condition is the disjunction of the member conditions, C(r) = ∨{pc |
// res(pc) = r}. Grouping reduces the number of solver queries in the
// crosscheck from |paths_A|·|paths_B| to |results_A|·|results_B| — a 1-5
// order of magnitude reduction in the paper's runs (Table 3).
//
// Following §4.2, the disjunction is built as a balanced binary OR tree,
// minimizing the depth of nested expressions the solver's encoder must
// traverse. (The sym constructors additionally flatten nested disjunctions
// into one n-ary node, which subsumes the balancing; BalancedOr keeps the
// §4.2 construction order and the ablation bench compares it against the
// naive chain.)
package group

import (
	"sort"
	"time"

	"github.com/soft-testing/soft/internal/harness"
	"github.com/soft-testing/soft/internal/sym"
)

// Group is one distinct output result and the input subspace producing it.
type Group struct {
	// Canonical is the normalized trace all member paths produced.
	Canonical string
	// Template is the trace's structural shape (expressions elided).
	Template string
	// Exprs are the trace's embedded value expressions.
	Exprs []*sym.Expr
	// Cond is the disjunction of member path conditions (balanced OR
	// tree).
	Cond *sym.Expr
	// Crashed reports whether the member paths ended in a crash.
	Crashed bool
	// PathCount is the number of merged paths.
	PathCount int
	// Model is a sample input from one member path (when available).
	Model sym.Assignment
}

// Result is a grouped phase-1 result.
type Result struct {
	Agent  string
	Test   string
	Groups []Group
	// Elapsed is the grouping time (Table 3's "Grouping results" column).
	Elapsed time.Duration
}

// Paths groups a phase-1 result by canonical output: an explored one, one
// read from a results file or the store, or a fleet merge.
func Paths(in *harness.Result) *Result {
	start := time.Now()
	byCanon := make(map[string]*Group)
	conds := make(map[string][]*sym.Expr)
	var order []string
	for i := range in.Paths {
		p := &in.Paths[i]
		g, ok := byCanon[p.Canonical]
		if !ok {
			g = &Group{
				Canonical: p.Canonical,
				Template:  p.Template,
				Exprs:     p.Exprs,
				Crashed:   p.Crashed,
				Model:     p.Model,
			}
			byCanon[p.Canonical] = g
			order = append(order, p.Canonical)
		}
		g.PathCount++
		conds[p.Canonical] = append(conds[p.Canonical], p.Cond)
	}
	sort.Strings(order)
	out := &Result{Agent: in.Agent, Test: in.Test}
	for _, c := range order {
		g := byCanon[c]
		g.Cond = BalancedOr(conds[c])
		out.Groups = append(out.Groups, *g)
	}
	out.Elapsed = time.Since(start)
	return out
}

// BalancedOr disjoins conditions as a balanced binary tree (§4.2: "we
// group path conditions by building a balanced binary tree minimizing the
// depth of nested expressions").
func BalancedOr(conds []*sym.Expr) *sym.Expr {
	switch len(conds) {
	case 0:
		return sym.Bool(false)
	case 1:
		return conds[0]
	}
	mid := len(conds) / 2
	return sym.LOr(BalancedOr(conds[:mid]), BalancedOr(conds[mid:]))
}

// LinearOr disjoins conditions as a right-leaning chain — the unbalanced
// alternative, kept for the ablation bench comparing §4.2's choice.
func LinearOr(conds []*sym.Expr) *sym.Expr {
	out := sym.Bool(false)
	for _, c := range conds {
		out = sym.LOr(out, c)
	}
	return out
}
