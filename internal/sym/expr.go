// Package sym implements a bitvector/boolean expression DAG used to
// represent symbolic values and path conditions during symbolic execution.
//
// Expressions are immutable. They are created through smart constructors
// (Const, Var, Add, Eq, ...) which perform light canonicalization and
// constant folding, so that a freshly built expression is already in a
// simplified form. The package also provides evaluation under a concrete
// assignment (Eval), variable collection (Vars), a canonical textual
// rendering used for result (de)serialization (String / Parse), and size
// metrics matching what the paper reports (number of boolean operations in
// a path condition).
//
// The expression language is the quantifier-free bitvector fragment that
// OpenFlow agent models need: fixed-width bitvectors of 1..64 bits,
// extraction/concatenation, modular arithmetic, bitwise logic, unsigned
// comparisons, if-then-else, and propositional connectives. This is the
// same theory STP answers for SOFT in the paper (arrays are not needed
// because agent models address memory concretely).
package sym

import "fmt"

// Op identifies the operator of an expression node.
type Op uint8

// Expression operators. Ops marked (bool) produce boolean expressions;
// the others produce bitvectors.
const (
	OpInvalid Op = iota

	OpConst   // bitvector constant: W, K
	OpVar     // bitvector variable: W, Name
	OpExtract // Extract bits [K2:K] (inclusive, K2 >= K) of Kids[0]
	OpConcat  // Kids[0] is the high part, Kids[1] the low part
	OpZExt    // zero-extend Kids[0] to width W

	OpAdd // Kids[0] + Kids[1] (mod 2^W)
	OpSub // Kids[0] - Kids[1] (mod 2^W)
	OpMul // Kids[0] * Kids[1] (mod 2^W)
	OpAnd // bitwise and
	OpOr  // bitwise or
	OpXor // bitwise xor
	OpNot // bitwise complement
	OpShl // logical shift left by constant K
	OpLshr

	OpIte // Kids[0] (bool) ? Kids[1] : Kids[2]

	OpBool // boolean constant: K is 0 or 1
	OpEq   // (bool) Kids[0] == Kids[1]
	OpUlt  // (bool) Kids[0] <u Kids[1]
	OpUle  // (bool) Kids[0] <=u Kids[1]
	OpLAnd // (bool) conjunction of Kids
	OpLOr  // (bool) disjunction of Kids
	OpLNot // (bool) negation of Kids[0]
)

var opNames = [...]string{
	OpConst: "const", OpVar: "var", OpExtract: "extract", OpConcat: "concat",
	OpZExt: "zext", OpAdd: "add", OpSub: "sub", OpMul: "mul", OpAnd: "and",
	OpOr: "or", OpXor: "xor", OpNot: "not", OpShl: "shl", OpLshr: "lshr",
	OpIte: "ite", OpBool: "bool", OpEq: "eq", OpUlt: "ult", OpUle: "ule",
	OpLAnd: "land", OpLOr: "lor", OpLNot: "lnot",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Expr is a node of an immutable expression DAG. A node with W == 0 is a
// boolean expression; otherwise it is a bitvector of width W (1..64 bits).
// Expr values must only be created through the package's constructors.
type Expr struct {
	Op   Op
	W    uint8  // width in bits; 0 for boolean expressions
	K    uint64 // constant value, shift amount, or extract low bit
	K2   uint64 // extract high bit
	Name string // variable name (OpVar only)
	Kids []*Expr

	hash uint64
	size int32 // total operator nodes in the DAG, counted as a tree; saturates at math.MaxInt32
}

// IsBool reports whether e is a boolean expression.
func (e *Expr) IsBool() bool { return e.W == 0 }

// Width returns the bitvector width of e, or 0 for booleans.
func (e *Expr) Width() int { return int(e.W) }

// IsConst reports whether e is a bitvector or boolean constant.
func (e *Expr) IsConst() bool { return e.Op == OpConst || e.Op == OpBool }

// ConstVal returns the constant value of e and whether e is a constant.
// For booleans the value is 0 or 1.
func (e *Expr) ConstVal() (uint64, bool) {
	if e.IsConst() {
		return e.K, true
	}
	return 0, false
}

// IsTrue reports whether e is the boolean constant true.
func (e *Expr) IsTrue() bool { return e.Op == OpBool && e.K == 1 }

// IsFalse reports whether e is the boolean constant false.
func (e *Expr) IsFalse() bool { return e.Op == OpBool && e.K == 0 }

// mask returns the w-bit mask, for 1 <= w <= 64.
func mask(w uint8) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << w) - 1
}

// hashSeed starts every node hash. Hashes live in memory only (they key
// the intern table, bitblast's activation index and the solver's query
// cache), so the mix need only spread well, not stay stable across builds.
const hashSeed = 0x243f6a8885a308d3

// hashMix folds one word into h: a multiply by the golden-ratio constant,
// then a shift-xor that carries the high bits down into the low ones the
// intern shard index reads.
func hashMix(h, v uint64) uint64 {
	h = (h ^ v) * 0x9e3779b97f4a7c15
	return h ^ h>>29
}

// hashNode is the structural hash of a node with the given fields and
// (already hashed) kids.
func hashNode(op Op, w uint8, k, k2 uint64, name string, kids []*Expr) uint64 {
	h := hashMix(hashSeed, uint64(op)|uint64(w)<<8|uint64(len(name))<<16)
	h = hashMix(h, k)
	h = hashMix(h, k2)
	for i := 0; i < len(name); i += 8 {
		var v uint64
		for j := i; j < len(name) && j < i+8; j++ {
			v = v<<8 | uint64(name[j])
		}
		h = hashMix(h, v)
	}
	for _, kid := range kids {
		h = hashMix(h, kid.hash)
	}
	return h
}

// Hash returns the structural hash of e. Structurally equal expressions
// have equal hashes.
func (e *Expr) Hash() uint64 { return e.hash }

// Size returns the number of operator nodes in e counted as a tree. This is
// the "constraint size" metric the paper reports in Table 2 (number of
// boolean/bitvector operations in a path condition). It saturates at
// math.MaxInt32 on DAGs whose tree count exceeds it.
func (e *Expr) Size() int { return int(e.size) }

// Equal reports structural equality of two expressions.
func Equal(a, b *Expr) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	if a.hash != b.hash || a.Op != b.Op || a.W != b.W || a.K != b.K ||
		a.K2 != b.K2 || a.Name != b.Name || len(a.Kids) != len(b.Kids) {
		return false
	}
	for i := range a.Kids {
		if !Equal(a.Kids[i], b.Kids[i]) {
			return false
		}
	}
	return true
}

// Vars appends the distinct variables referenced by e to dst, keyed by
// name, and returns the map. Pass nil to allocate a fresh map.
func Vars(e *Expr, dst map[string]*Expr) map[string]*Expr {
	if dst == nil {
		dst = make(map[string]*Expr)
	}
	seen := make(map[*Expr]bool)
	var walk func(*Expr)
	walk = func(n *Expr) {
		if seen[n] {
			return
		}
		seen[n] = true
		if n.Op == OpVar {
			dst[n.Name] = n
			return
		}
		for _, k := range n.Kids {
			walk(k)
		}
	}
	walk(e)
	return dst
}
