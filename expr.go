package soft

import "github.com/soft-testing/soft/internal/sym"

// Expression constructors for embedders writing custom Handlers or
// Assume/Branch conditions. These cover the comparisons and connectives a
// driver typically needs; symbolic input variables come from
// ExecContext.NewSym during exploration (or SymVar when rebuilding
// conditions outside a run). All constructors hash-cons and
// constant-fold, so equal expressions are pointer-equal.

// Const builds a w-bit constant.
func Const(w int, v uint64) *Expr { return sym.Const(w, v) }

// SymVar builds a named w-bit symbolic variable. Inside a Handler, use
// ExecContext.NewSym instead, which panics when a name comes back at a
// second width.
func SymVar(name string, w int) *Expr { return sym.Var(name, w) }

// Bool builds a boolean constant.
func Bool(v bool) *Expr { return sym.Bool(v) }

// Eq compares two equal-width bitvectors for equality.
func Eq(a, b *Expr) *Expr { return sym.Eq(a, b) }

// EqConst compares a bitvector against a constant of the same width.
func EqConst(a *Expr, v uint64) *Expr { return sym.EqConst(a, v) }

// Ne is the negation of Eq.
func Ne(a, b *Expr) *Expr { return sym.Ne(a, b) }

// Ult is unsigned less-than.
func Ult(a, b *Expr) *Expr { return sym.Ult(a, b) }

// Ule is unsigned less-or-equal.
func Ule(a, b *Expr) *Expr { return sym.Ule(a, b) }

// LAnd is boolean conjunction (true when empty).
func LAnd(xs ...*Expr) *Expr { return sym.LAnd(xs...) }

// LOr is boolean disjunction (false when empty).
func LOr(xs ...*Expr) *Expr { return sym.LOr(xs...) }

// LNot is boolean negation.
func LNot(e *Expr) *Expr { return sym.LNot(e) }
