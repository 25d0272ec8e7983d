package sym

import "fmt"

// Assignment maps variable names to concrete values. Values wider than the
// variable's width are truncated during evaluation.
type Assignment map[string]uint64

// Eval evaluates e under the assignment σ. Boolean results are reported as
// 0 or 1. Unassigned variables evaluate to 0, matching how a solver model
// leaves don't-care inputs unconstrained. Each distinct node of e's DAG is
// evaluated once, however often it is shared.
func Eval(e *Expr, σ Assignment) uint64 {
	var ev Evaluator
	return ev.Eval(e, σ)
}

// Evaluator is Eval with a memo that is kept across calls, so a caller
// that evaluates many expressions allocates it once. The zero value is
// ready to use; an Evaluator is not safe for concurrent use.
type Evaluator struct {
	memo map[*Expr]uint64
}

// Eval evaluates e under σ, like the package-level Eval.
func (ev *Evaluator) Eval(e *Expr, σ Assignment) uint64 {
	clear(ev.memo)
	return ev.eval(e, σ)
}

// EvalBool evaluates a boolean expression under σ, like the package-level
// EvalBool.
func (ev *Evaluator) EvalBool(e *Expr, σ Assignment) bool {
	checkBool(e, "EvalBool")
	return ev.Eval(e, σ) == 1
}

// eval memoizes interior nodes; a leaf costs no more than a memo lookup.
func (ev *Evaluator) eval(e *Expr, σ Assignment) uint64 {
	if len(e.Kids) == 0 {
		return ev.op(e, σ)
	}
	if v, ok := ev.memo[e]; ok {
		return v
	}
	v := ev.op(e, σ)
	if ev.memo == nil {
		ev.memo = make(map[*Expr]uint64)
	}
	ev.memo[e] = v
	return v
}

// op applies e's operator to its kids' values.
func (ev *Evaluator) op(e *Expr, σ Assignment) uint64 {
	switch e.Op {
	case OpConst, OpBool:
		return e.K
	case OpVar:
		return σ[e.Name] & mask(e.W)
	case OpExtract:
		return (ev.eval(e.Kids[0], σ) >> e.K) & mask(e.W)
	case OpConcat:
		return (ev.eval(e.Kids[0], σ)<<e.Kids[1].W | ev.eval(e.Kids[1], σ)) & mask(e.W)
	case OpZExt:
		return ev.eval(e.Kids[0], σ)
	case OpAdd:
		return (ev.eval(e.Kids[0], σ) + ev.eval(e.Kids[1], σ)) & mask(e.W)
	case OpSub:
		return (ev.eval(e.Kids[0], σ) - ev.eval(e.Kids[1], σ)) & mask(e.W)
	case OpMul:
		return (ev.eval(e.Kids[0], σ) * ev.eval(e.Kids[1], σ)) & mask(e.W)
	case OpAnd:
		return ev.eval(e.Kids[0], σ) & ev.eval(e.Kids[1], σ)
	case OpOr:
		return ev.eval(e.Kids[0], σ) | ev.eval(e.Kids[1], σ)
	case OpXor:
		return ev.eval(e.Kids[0], σ) ^ ev.eval(e.Kids[1], σ)
	case OpNot:
		return ^ev.eval(e.Kids[0], σ) & mask(e.W)
	case OpShl:
		return (ev.eval(e.Kids[0], σ) << e.K) & mask(e.W)
	case OpLshr:
		return ev.eval(e.Kids[0], σ) >> e.K
	case OpIte:
		if ev.eval(e.Kids[0], σ) == 1 {
			return ev.eval(e.Kids[1], σ)
		}
		return ev.eval(e.Kids[2], σ)
	case OpEq:
		return b2u(ev.eval(e.Kids[0], σ) == ev.eval(e.Kids[1], σ))
	case OpUlt:
		return b2u(ev.eval(e.Kids[0], σ) < ev.eval(e.Kids[1], σ))
	case OpUle:
		return b2u(ev.eval(e.Kids[0], σ) <= ev.eval(e.Kids[1], σ))
	case OpLAnd:
		for _, k := range e.Kids {
			if ev.eval(k, σ) == 0 {
				return 0
			}
		}
		return 1
	case OpLOr:
		for _, k := range e.Kids {
			if ev.eval(k, σ) == 1 {
				return 1
			}
		}
		return 0
	case OpLNot:
		return 1 - ev.eval(e.Kids[0], σ)
	}
	panic(fmt.Sprintf("sym: eval of %v", e.Op))
}

// EvalBool evaluates a boolean expression under σ.
func EvalBool(e *Expr, σ Assignment) bool {
	checkBool(e, "EvalBool")
	return Eval(e, σ) == 1
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
