package sym

import (
	"fmt"
	"strconv"
)

// The text codec. Expressions travel between SOFT's phases as
// s-expressions, one per line: results files, store entries and the
// fleet's shard payloads all use it (§2.4: the crosscheck works on
// symbolic execution outputs, not on agent source). An expression is a
// hash-consed DAG, and a stream (one file, one payload) writes it as one:
// in the spirit of SMT-LIB 2 `let` and of hash-consing (Filliâtre and
// Conchon, ML 2006), each distinct subterm is written once and every later
// occurrence as a back-reference.
//
// Numbering is implicit. The writer and the reader of a stream both count
// the parenthesized nodes of the stream from 0, in the order each one is
// finished (post-order, so a node's kids come before it), roots included;
// `true` and `false` are never numbered. "#n" stands for node n, which
// must already be finished: a forward, dangling or self reference is a
// parse error, so no cycle can be written. A stream without "#" is the
// plain tree text and parses as before, so files from older writers still
// read.
//
// (*Expr).String, Parse and the tree Printer stay tree text: trace
// canonicals (the group keys), scenario hashes and store.ResultHash are
// defined over it.

// Printer renders expressions in the text form Reader parses. A Printer is
// not safe for concurrent use; the zero Printer renders each expression
// as its full tree.
type Printer struct {
	// ids numbers every node a sharing Printer has rendered.
	ids map[*Expr]int
	// memo holds the text of every non-root subterm a tree Printer has
	// rendered, so a repeated subterm is copied, not rendered again.
	memo map[*Expr]string
}

// NewPrinter returns a sharing Printer: it writes each distinct node once
// and "#n" for every later occurrence. Use one per stream, and one Reader
// to read the stream back. The numbering follows node identity, so a node
// that escaped interning is written again, never wrongly referenced.
func NewPrinter() *Printer {
	return &Printer{ids: make(map[*Expr]int)}
}

// NewTreePrinter returns a Printer whose output is byte-identical to
// String's, memoizing the text of each subterm it renders. Use one per
// stream.
func NewTreePrinter() *Printer {
	return &Printer{memo: make(map[*Expr]string)}
}

// Append appends the text of e to dst and returns the extended buffer.
func (p *Printer) Append(dst []byte, e *Expr) []byte {
	return p.append(dst, e, true)
}

func (p *Printer) append(dst []byte, e *Expr, root bool) []byte {
	if e.Op == OpBool {
		if e.K == 1 {
			return append(dst, "true"...)
		}
		return append(dst, "false"...)
	}
	if p.ids != nil {
		if n, ok := p.ids[e]; ok {
			return strconv.AppendInt(append(dst, '#'), int64(n), 10)
		}
	}
	memo := !root && p.memo != nil
	if memo {
		if s, ok := p.memo[e]; ok {
			return append(dst, s...)
		}
	}
	start := len(dst)
	switch e.Op {
	case OpConst:
		dst = append(dst, "(const "...)
		dst = strconv.AppendUint(dst, uint64(e.W), 10)
		dst = append(dst, ' ')
		dst = strconv.AppendUint(dst, e.K, 10)
	case OpVar:
		dst = append(dst, "(var "...)
		dst = append(dst, e.Name...)
		dst = append(dst, ' ')
		dst = strconv.AppendUint(dst, uint64(e.W), 10)
	case OpExtract:
		dst = append(dst, "(extract "...)
		dst = strconv.AppendUint(dst, e.K2, 10)
		dst = append(dst, ' ')
		dst = strconv.AppendUint(dst, e.K, 10)
		dst = append(dst, ' ')
		dst = p.append(dst, e.Kids[0], false)
	case OpZExt:
		dst = append(dst, "(zext "...)
		dst = strconv.AppendUint(dst, uint64(e.W), 10)
		dst = append(dst, ' ')
		dst = p.append(dst, e.Kids[0], false)
	case OpShl, OpLshr:
		dst = append(dst, '(')
		dst = append(dst, e.Op.String()...)
		dst = append(dst, ' ')
		dst = strconv.AppendUint(dst, e.K, 10)
		dst = append(dst, ' ')
		dst = p.append(dst, e.Kids[0], false)
	default:
		dst = append(dst, '(')
		dst = append(dst, e.Op.String()...)
		for _, k := range e.Kids {
			dst = append(dst, ' ')
			dst = p.append(dst, k, false)
		}
	}
	dst = append(dst, ')')
	if p.ids != nil {
		p.ids[e] = len(p.ids)
	}
	if memo {
		p.memo[e] = string(dst[start:])
	}
	return dst
}

// String renders e in a canonical s-expression form, parseable by Parse.
func (e *Expr) String() string {
	var p Printer
	return string(p.Append(nil, e))
}

// Reader parses the text Printer writes, one expression (line) at a time.
// The expressions of one stream go through one Reader, which numbers each
// parenthesized node as it finishes parsing it and resolves "#n" to node n.
// A line that fails leaves the numbering as it was. The zero Reader is
// ready to use; it is not safe for concurrent use.
type Reader struct {
	nodes []*Expr

	in  string
	pos int
}

// parseError carries a parse failure up to Parse's recover.
type parseError struct{ err error }

// Parse reads one expression from s. It never panics: malformed text,
// references to nodes not yet parsed and ill-typed operands (width
// mismatches the constructors reject) are errors.
func (r *Reader) Parse(s string) (e *Expr, err error) {
	r.in, r.pos = s, 0
	n := len(r.nodes)
	defer func() {
		r.in = ""
		if x := recover(); x != nil {
			e = nil
			r.nodes = r.nodes[:n]
			if pe, ok := x.(parseError); ok {
				err = pe.err
			} else {
				err = fmt.Errorf("sym: invalid expression: %v", x)
			}
		}
	}()
	e = r.expr()
	r.skipSpace()
	if r.pos != len(r.in) {
		r.fail("trailing input at %d: %q", r.pos, r.rest())
	}
	return e, nil
}

// Parse reads an expression from the canonical s-expression form produced
// by (*Expr).String. It is used to deserialize path conditions in SOFT's
// second phase, which — as in the paper — operates on symbolic execution
// outputs rather than on agent source code.
func Parse(s string) (*Expr, error) {
	var r Reader
	return r.Parse(s)
}

// MustParse is Parse that panics on error; for tests and constants.
func MustParse(s string) *Expr {
	e, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return e
}

func (r *Reader) fail(format string, args ...any) {
	panic(parseError{fmt.Errorf("sym: "+format, args...)})
}

func (r *Reader) rest() string {
	s := r.in[r.pos:]
	if len(s) > 24 {
		s = s[:24] + "..."
	}
	return s
}

func (r *Reader) skipSpace() {
	for r.pos < len(r.in) && (r.in[r.pos] == ' ' || r.in[r.pos] == '\t' || r.in[r.pos] == '\n') {
		r.pos++
	}
}

func (r *Reader) token() string {
	r.skipSpace()
	start := r.pos
	for r.pos < len(r.in) {
		c := r.in[r.pos]
		if c == '(' || c == ')' || c == ' ' || c == '\t' || c == '\n' {
			break
		}
		r.pos++
	}
	return r.in[start:r.pos]
}

func (r *Reader) expect(c byte) {
	r.skipSpace()
	if r.pos >= len(r.in) || r.in[r.pos] != c {
		r.fail("expected %q at %d, have %q", string(c), r.pos, r.rest())
	}
	r.pos++
}

func (r *Reader) int() int {
	t := r.token()
	v, err := strconv.Atoi(t)
	if err != nil {
		r.fail("bad integer %q at %d", t, r.pos)
	}
	return v
}

func (r *Reader) uint() uint64 {
	t := r.token()
	v, err := strconv.ParseUint(t, 10, 64)
	if err != nil {
		r.fail("bad unsigned integer %q at %d", t, r.pos)
	}
	return v
}

func (r *Reader) expr() *Expr {
	r.skipSpace()
	if r.pos >= len(r.in) {
		r.fail("unexpected end of input")
	}
	switch r.in[r.pos] {
	case '(':
		e := r.compound()
		r.nodes = append(r.nodes, e)
		return e
	case '#':
		r.pos++
		t := r.token()
		n, err := strconv.ParseUint(t, 10, 64)
		if err != nil || n >= uint64(len(r.nodes)) {
			r.fail("reference #%s at %d names no earlier node (%d so far)", t, r.pos, len(r.nodes))
		}
		return r.nodes[n]
	}
	t := r.token()
	switch t {
	case "true":
		return True
	case "false":
		return False
	}
	r.fail("unexpected token %q at %d", t, r.pos)
	return nil
}

// compound parses the parenthesized expression at r.pos.
func (r *Reader) compound() *Expr {
	r.pos++ // consume '('
	op := r.token()
	var e *Expr
	switch op {
	case "const":
		w := r.int()
		e = Const(w, r.uint())
	case "var":
		name := r.token()
		e = Var(name, r.int())
	case "extract":
		hi := r.int()
		lo := r.int()
		e = Extract(r.expr(), hi, lo)
	case "zext":
		w := r.int()
		e = ZExt(r.expr(), w)
	case "shl":
		sh := r.int()
		e = Shl(r.expr(), sh)
	case "lshr":
		sh := r.int()
		e = Lshr(r.expr(), sh)
	default:
		var kids []*Expr
		for {
			r.skipSpace()
			if r.pos < len(r.in) && r.in[r.pos] == ')' {
				break
			}
			kids = append(kids, r.expr())
		}
		e = r.buildOp(op, kids)
	}
	r.expect(')')
	return e
}

// binaryOps maps the two-operand operators to their constructors.
var binaryOps = map[string]func(a, b *Expr) *Expr{
	"concat": Concat, "add": Add, "sub": Sub, "mul": Mul, "and": And,
	"or": Or, "xor": Xor, "eq": Eq, "ult": Ult, "ule": Ule,
}

func (r *Reader) buildOp(op string, kids []*Expr) *Expr {
	need := func(n int) {
		if len(kids) != n {
			r.fail("%s wants %d operands, have %d", op, n, len(kids))
		}
	}
	if f, ok := binaryOps[op]; ok {
		need(2)
		return f(kids[0], kids[1])
	}
	switch op {
	case "not":
		need(1)
		return Not(kids[0])
	case "lnot":
		need(1)
		return LNot(kids[0])
	case "ite":
		need(3)
		return Ite(kids[0], kids[1], kids[2])
	case "land":
		return LAnd(kids...)
	case "lor":
		return LOr(kids...)
	}
	r.fail("unknown operator %q", op)
	return nil
}
