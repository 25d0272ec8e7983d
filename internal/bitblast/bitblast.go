// Package bitblast translates sym bitvector/boolean expressions into CNF
// over the sat package's literals (Tseitin encoding). Together with the CDCL
// core it forms the decision procedure that substitutes for STP in the SOFT
// reproduction: satisfiability of path conditions, crosscheck conjunctions
// C_A(i) ∧ C_B(j), and model (test case) extraction.
//
// Encoding conventions: a bitvector of width w becomes w SAT literals, least
// significant bit first. A boolean expression becomes a single literal. The
// encoder memoizes on expression identity and on structural hash so shared
// DAG nodes are encoded once.
package bitblast

import (
	"fmt"
	"sort"
	"time"

	"github.com/soft-testing/soft/internal/sat"
	"github.com/soft-testing/soft/internal/sym"
)

// Blaster incrementally encodes expressions into a sat.Solver. A single
// Blaster owns its solver; create a fresh Blaster per query batch, or reuse
// it for several Assert calls followed by one Solve or CanonicalModel.
//
// Variable numbering is canonical: named variables are numbered by a stable
// pre-order traversal of each asserted expression, before any auxiliary
// Tseitin variables for that expression — never by gate-allocation order.
// Two Blasters asserting the same expression sequence therefore emit
// byte-identical CNF (TestCanonicalCNF pins this).
type Blaster struct {
	S     *sat.Solver
	vars  map[string][]sat.Lit // bitvector variable -> bit literals (LSB first)
	memo  map[*sym.Expr][]sat.Lit
	ltrue sat.Lit // literal constrained to true

	// Clauses counts CNF clauses added; Aux counts auxiliary variables.
	Clauses int
	Aux     int
}

// New creates an empty Blaster with a fresh SAT solver.
func New() *Blaster {
	b := &Blaster{
		S:    sat.New(),
		vars: make(map[string][]sat.Lit),
		memo: make(map[*sym.Expr][]sat.Lit),
	}
	b.ltrue = b.newLit()
	b.addClause(b.ltrue)
	return b
}

func (b *Blaster) newLit() sat.Lit {
	b.Aux++
	return sat.MkLit(b.S.NewVar(), false)
}

func (b *Blaster) addClause(ls ...sat.Lit) {
	b.Clauses++
	b.S.AddClause(ls...)
}

func (b *Blaster) constLit(v bool) sat.Lit {
	if v {
		return b.ltrue
	}
	return b.ltrue.Not()
}

// VarBits returns (creating on first use) the bit literals of the named
// bitvector variable.
func (b *Blaster) VarBits(name string, w int) []sat.Lit {
	if bits, ok := b.vars[name]; ok {
		if len(bits) != w {
			panic(fmt.Sprintf("bitblast: variable %q used with widths %d and %d", name, len(bits), w))
		}
		return bits
	}
	bits := make([]sat.Lit, w)
	for i := range bits {
		bits[i] = sat.MkLit(b.S.NewVar(), false)
	}
	b.vars[name] = bits
	return bits
}

// reserveVars numbers every named variable of e in stable pre-order
// traversal position (first occurrence wins), before any auxiliary
// variables of e's encoding are allocated. This is what keeps variable
// numbering a function of the asserted expressions rather than of gate
// construction order.
func (b *Blaster) reserveVars(e *sym.Expr) {
	seen := make(map[*sym.Expr]bool)
	var walk func(e *sym.Expr)
	walk = func(e *sym.Expr) {
		if seen[e] {
			return
		}
		seen[e] = true
		if e.Op == sym.OpVar {
			b.VarBits(e.Name, int(e.W))
			return
		}
		for _, k := range e.Kids {
			walk(k)
		}
	}
	walk(e)
}

// Assert adds the boolean expression e as a hard constraint.
func (b *Blaster) Assert(e *sym.Expr) {
	if !e.IsBool() {
		panic("bitblast: Assert requires a boolean expression")
	}
	b.reserveVars(e)
	b.assert(e)
}

func (b *Blaster) assert(e *sym.Expr) {
	// Top-level conjunctions decompose into independent asserts, which keeps
	// clauses shorter than funnelling through a single Tseitin output.
	if e.Op == sym.OpLAnd {
		for _, k := range e.Kids {
			b.assert(k)
		}
		return
	}
	b.addClause(b.enc1(e))
}

// Solve decides satisfiability of everything asserted so far.
func (b *Blaster) Solve() bool { return b.solve(nil, nil) }

// SolveAssuming decides satisfiability under extra assumption expressions
// without permanently asserting them.
func (b *Blaster) SolveAssuming(es ...*sym.Expr) bool {
	lits := make([]sat.Lit, len(es))
	for i, e := range es {
		b.reserveVars(e)
		lits[i] = b.enc1(e)
	}
	return b.solve(lits, nil)
}

// solve runs one SAT decision and records it in the solve metrics.
func (b *Blaster) solve(assumptions, pref []sat.Lit) bool {
	start := time.Now()
	ok := b.S.SolvePreferring(assumptions, pref)
	MSolves.Inc()
	MSolveLatency.ObserveSince(start)
	return ok
}

// Model extracts the assignment of every bitvector variable mentioned in
// asserted expressions. Must be called only after a satisfiable Solve.
func (b *Blaster) Model() sym.Assignment { return modelOf(b.S, b.vars) }

// modelOf reads the named variables' values from the solver's last model.
func modelOf(s *sat.Solver, vars map[string][]sat.Lit) sym.Assignment {
	m := make(sym.Assignment, len(vars))
	for name, bits := range vars {
		var v uint64
		for i, l := range bits {
			if s.Value(l.Var()) != l.Neg() {
				v |= 1 << i
			}
		}
		m[name] = v
	}
	return m
}

// CanonicalModel decides the asserted constraints and returns their
// canonical witness, or nil when they are unsatisfiable. The canonical
// witness is the satisfying assignment with the numerically smallest
// values, minimized variable by variable in name order (each variable's
// bits are fixed MSB first). Unlike Model, whose values depend on the CDCL
// search trajectory (and hence on learned clauses, restarts, and encoding
// layout), the canonical model is a pure function of the constraint
// semantics — the property the pipeline's byte-for-byte determinism
// guarantees rest on. It costs one solve (see canonicalOrder).
func (b *Blaster) CanonicalModel() sym.Assignment {
	pref, _ := canonicalOrder(nil, nil, b.vars)
	if !b.solve(nil, pref) {
		return nil
	}
	return b.Model()
}

// canonicalOrder appends to pref the preferred-decision list whose
// sat.SolvePreferring model is the canonical witness over vars: every bit
// at 0, variables in name order, each MSB first. SolvePreferring makes each
// bit 0 unless the constraints and the bits before it force it to 1, which
// is the definition of the lexicographic minimum, so one ordered solve
// yields the witness. names is scratch space for the sorted variable
// names; both slices are returned for reuse.
func canonicalOrder(pref []sat.Lit, names []string, vars map[string][]sat.Lit) ([]sat.Lit, []string) {
	for name := range vars {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		bits := vars[name]
		for i := len(bits) - 1; i >= 0; i-- {
			pref = append(pref, bits[i].Not())
		}
	}
	return pref, names
}

// enc encodes a bitvector expression to its bit literals (booleans to a
// single literal via enc1).
func (b *Blaster) enc(e *sym.Expr) []sat.Lit {
	if bits, ok := b.memo[e]; ok {
		return bits
	}
	var bits []sat.Lit
	switch e.Op {
	case sym.OpConst:
		bits = make([]sat.Lit, e.W)
		for i := range bits {
			bits[i] = b.constLit(e.K>>i&1 == 1)
		}
	case sym.OpVar:
		bits = b.VarBits(e.Name, int(e.W))
	case sym.OpExtract:
		kid := b.enc(e.Kids[0])
		bits = kid[e.K : e.K2+1]
	case sym.OpConcat:
		hi, lo := b.enc(e.Kids[0]), b.enc(e.Kids[1])
		bits = make([]sat.Lit, 0, len(hi)+len(lo))
		bits = append(bits, lo...)
		bits = append(bits, hi...)
	case sym.OpZExt:
		kid := b.enc(e.Kids[0])
		bits = make([]sat.Lit, e.W)
		copy(bits, kid)
		for i := len(kid); i < int(e.W); i++ {
			bits[i] = b.constLit(false)
		}
	case sym.OpAdd:
		bits = b.adder(b.enc(e.Kids[0]), b.enc(e.Kids[1]), b.constLit(false), false)
	case sym.OpSub:
		// a - b = a + ^b + 1.
		nb := b.enc(e.Kids[1])
		inv := make([]sat.Lit, len(nb))
		for i, l := range nb {
			inv[i] = l.Not()
		}
		bits = b.adder(b.enc(e.Kids[0]), inv, b.constLit(true), false)
	case sym.OpMul:
		bits = b.multiplier(b.enc(e.Kids[0]), b.enc(e.Kids[1]))
	case sym.OpAnd:
		bits = b.bitwise(e, func(x, y sat.Lit) sat.Lit { return b.andGate(x, y) })
	case sym.OpOr:
		bits = b.bitwise(e, func(x, y sat.Lit) sat.Lit { return b.orGate(x, y) })
	case sym.OpXor:
		bits = b.bitwise(e, func(x, y sat.Lit) sat.Lit { return b.xorGate(x, y) })
	case sym.OpNot:
		kid := b.enc(e.Kids[0])
		bits = make([]sat.Lit, len(kid))
		for i, l := range kid {
			bits[i] = l.Not()
		}
	case sym.OpShl:
		kid := b.enc(e.Kids[0])
		bits = make([]sat.Lit, e.W)
		for i := range bits {
			if i >= int(e.K) {
				bits[i] = kid[i-int(e.K)]
			} else {
				bits[i] = b.constLit(false)
			}
		}
	case sym.OpLshr:
		kid := b.enc(e.Kids[0])
		bits = make([]sat.Lit, e.W)
		for i := range bits {
			if i+int(e.K) < len(kid) {
				bits[i] = kid[i+int(e.K)]
			} else {
				bits[i] = b.constLit(false)
			}
		}
	case sym.OpIte:
		c := b.enc1(e.Kids[0])
		t, f := b.enc(e.Kids[1]), b.enc(e.Kids[2])
		bits = make([]sat.Lit, len(t))
		for i := range bits {
			bits[i] = b.muxGate(c, t[i], f[i])
		}
	default:
		// Boolean expression used as a 1-bit value is a caller bug; sym
		// keeps the two sorts distinct.
		panic(fmt.Sprintf("bitblast: cannot encode %v as bitvector", e.Op))
	}
	b.memo[e] = bits
	return bits
}

// enc1 encodes a boolean expression to one literal.
func (b *Blaster) enc1(e *sym.Expr) sat.Lit {
	if bits, ok := b.memo[e]; ok {
		return bits[0]
	}
	var l sat.Lit
	switch e.Op {
	case sym.OpBool:
		l = b.constLit(e.K == 1)
	case sym.OpEq:
		x, y := b.enc(e.Kids[0]), b.enc(e.Kids[1])
		// eq = AND_i xnor(x_i, y_i)
		parts := make([]sat.Lit, len(x))
		for i := range x {
			parts[i] = b.xorGate(x[i], y[i]).Not()
		}
		l = b.andAll(parts)
	case sym.OpUlt:
		l = b.ultGate(b.enc(e.Kids[0]), b.enc(e.Kids[1]))
	case sym.OpUle:
		l = b.ultGate(b.enc(e.Kids[1]), b.enc(e.Kids[0])).Not()
	case sym.OpLAnd:
		parts := make([]sat.Lit, len(e.Kids))
		for i, k := range e.Kids {
			parts[i] = b.enc1(k)
		}
		l = b.andAll(parts)
	case sym.OpLOr:
		parts := make([]sat.Lit, len(e.Kids))
		for i, k := range e.Kids {
			parts[i] = b.enc1(k).Not()
		}
		l = b.andAll(parts).Not()
	case sym.OpLNot:
		l = b.enc1(e.Kids[0]).Not()
	case sym.OpIte:
		// Boolean ite.
		l = b.muxGate(b.enc1(e.Kids[0]), b.enc1(e.Kids[1]), b.enc1(e.Kids[2]))
	default:
		panic(fmt.Sprintf("bitblast: cannot encode %v as boolean", e.Op))
	}
	b.memo[e] = []sat.Lit{l}
	return l
}

// andGate returns a literal g with g <-> x AND y.
func (b *Blaster) andGate(x, y sat.Lit) sat.Lit {
	if x == y {
		return x
	}
	if x == y.Not() {
		return b.constLit(false)
	}
	if x == b.ltrue {
		return y
	}
	if y == b.ltrue {
		return x
	}
	if x == b.ltrue.Not() || y == b.ltrue.Not() {
		return b.constLit(false)
	}
	g := b.newLit()
	b.addClause(x.Not(), y.Not(), g)
	b.addClause(x, g.Not())
	b.addClause(y, g.Not())
	return g
}

func (b *Blaster) orGate(x, y sat.Lit) sat.Lit {
	return b.andGate(x.Not(), y.Not()).Not()
}

// xorGate returns g with g <-> x XOR y.
func (b *Blaster) xorGate(x, y sat.Lit) sat.Lit {
	if x == y {
		return b.constLit(false)
	}
	if x == y.Not() {
		return b.constLit(true)
	}
	if x == b.ltrue {
		return y.Not()
	}
	if x == b.ltrue.Not() {
		return y
	}
	if y == b.ltrue {
		return x.Not()
	}
	if y == b.ltrue.Not() {
		return x
	}
	g := b.newLit()
	b.addClause(x.Not(), y.Not(), g.Not())
	b.addClause(x, y, g.Not())
	b.addClause(x.Not(), y, g)
	b.addClause(x, y.Not(), g)
	return g
}

// muxGate returns g with g <-> (c ? t : f).
func (b *Blaster) muxGate(c, t, f sat.Lit) sat.Lit {
	if t == f {
		return t
	}
	if c == b.ltrue {
		return t
	}
	if c == b.ltrue.Not() {
		return f
	}
	g := b.newLit()
	b.addClause(c.Not(), t.Not(), g)
	b.addClause(c.Not(), t, g.Not())
	b.addClause(c, f.Not(), g)
	b.addClause(c, f, g.Not())
	return g
}

// andAll conjoins a set of literals into one output literal.
func (b *Blaster) andAll(ls []sat.Lit) sat.Lit {
	out := make([]sat.Lit, 0, len(ls))
	for _, l := range ls {
		if l == b.ltrue {
			continue
		}
		if l == b.ltrue.Not() {
			return b.constLit(false)
		}
		out = append(out, l)
	}
	switch len(out) {
	case 0:
		return b.constLit(true)
	case 1:
		return out[0]
	}
	g := b.newLit()
	long := make([]sat.Lit, 0, len(out)+1)
	for _, l := range out {
		b.addClause(l, g.Not()) // g -> l
		long = append(long, l.Not())
	}
	long = append(long, g) // all l -> g
	b.addClause(long...)
	return g
}

// adder builds a ripple-carry adder; if keepCarry is true the result has one
// extra bit (unused by sym, kept for the comparator).
func (b *Blaster) adder(x, y []sat.Lit, carry sat.Lit, keepCarry bool) []sat.Lit {
	n := len(x)
	out := make([]sat.Lit, n, n+1)
	c := carry
	for i := 0; i < n; i++ {
		xy := b.xorGate(x[i], y[i])
		out[i] = b.xorGate(xy, c)
		// carry_out = (x AND y) OR (c AND (x XOR y))
		c = b.orGate(b.andGate(x[i], y[i]), b.andGate(c, xy))
	}
	if keepCarry {
		out = append(out, c)
	}
	return out
}

// multiplier builds a shift-and-add multiplier, truncated to len(x) bits.
func (b *Blaster) multiplier(x, y []sat.Lit) []sat.Lit {
	n := len(x)
	acc := make([]sat.Lit, n)
	for i := range acc {
		acc[i] = b.constLit(false)
	}
	for i := 0; i < n; i++ {
		// partial = y[i] ? (x << i) : 0
		partial := make([]sat.Lit, n)
		for j := range partial {
			if j >= i {
				partial[j] = b.andGate(y[i], x[j-i])
			} else {
				partial[j] = b.constLit(false)
			}
		}
		acc = b.adder(acc, partial, b.constLit(false), false)
	}
	return acc
}

// ultGate returns a literal that is true iff x < y unsigned.
func (b *Blaster) ultGate(x, y []sat.Lit) sat.Lit {
	// Compare from MSB down: lt_i = (~x_i & y_i) | (xnor(x_i,y_i) & lt_{i-1})
	lt := b.constLit(false)
	for i := 0; i < len(x); i++ { // LSB to MSB so the final value is MSB-dominant
		eq := b.xorGate(x[i], y[i]).Not()
		bitLt := b.andGate(x[i].Not(), y[i])
		lt = b.orGate(bitLt, b.andGate(eq, lt))
	}
	return lt
}

func (b *Blaster) bitwise(e *sym.Expr, gate func(x, y sat.Lit) sat.Lit) []sat.Lit {
	x, y := b.enc(e.Kids[0]), b.enc(e.Kids[1])
	bits := make([]sat.Lit, len(x))
	for i := range bits {
		bits[i] = gate(x[i], y[i])
	}
	return bits
}
