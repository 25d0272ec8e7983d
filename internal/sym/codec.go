package sym

import (
	"fmt"
	"strconv"
	"strings"
)

// The text codec. Expressions travel between SOFT's phases as canonical
// s-expressions, one per line: results files, groups files, store entries
// and the fleet's shard payloads all use it (§2.4: the crosscheck works on
// symbolic execution outputs, not on agent source). An expression is a
// hash-consed DAG, but its text is the tree: a path condition that shares
// one conjunct with a thousand other paths repeats that conjunct's text a
// thousand times in a file.
//
// Printer and Reader are the one renderer and the one parser. A stream
// (one file, one payload) that shares a Printer renders each distinct
// subterm once and copies its text after that; a stream that shares a
// Reader parses each distinct subterm text once and looks it up after
// that. The memo changes no byte: the text is the same with or without
// it. String and Parse are the same codec with no memo.

// Printer renders expressions in the canonical s-expression form that
// Reader parses. A Printer made by NewPrinter memoizes the text of every
// non-root subterm it renders, keyed by node, so a subterm seen earlier in
// the stream is copied instead of rendered again; the zero Printer renders
// every node. The output is byte-identical either way. A Printer is not
// safe for concurrent use.
type Printer struct {
	memo map[*Expr]string
}

// NewPrinter returns a memoizing Printer. Use one per stream: the memo
// holds the text of every distinct subterm rendered through it.
func NewPrinter() *Printer {
	return &Printer{memo: make(map[*Expr]string)}
}

// Append appends the canonical text of e to dst and returns the extended
// buffer.
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

// Reader parses the canonical s-expression form, one expression (line) at
// a time. A Reader made by NewReader memoizes every non-root parenthesized
// subterm it parses successfully, keyed by its exact text: a later
// occurrence of the same text in the stream is skipped and answered from
// the memo. The parse of a subterm depends on its text alone, so a hit
// returns the node a re-parse would build, and only successful parses are
// stored, so malformed input fails exactly as it does without the memo.
// The zero Reader parses every node. A Reader is not safe for concurrent
// use.
type Reader struct {
	memo map[string]*Expr

	in  string
	pos int
	// close[i] is one past the ')' matching the '(' at in[i] (0 when it
	// has none), filled once per line when memoizing.
	close []int32
	open  []int32
}

// NewReader returns a memoizing Reader. Use one per stream: the memo holds
// every distinct subterm text parsed through it.
func NewReader() *Reader {
	return &Reader{memo: make(map[string]*Expr)}
}

// parseError carries a parse failure up to Parse's recover.
type parseError struct{ err error }

// Parse reads one expression from s. It never panics: malformed text and
// ill-typed operands (width mismatches the constructors reject) are
// errors.
func (r *Reader) Parse(s string) (e *Expr, err error) {
	r.in, r.pos = s, 0
	defer func() {
		r.in = ""
		if x := recover(); x != nil {
			e = nil
			if pe, ok := x.(parseError); ok {
				err = pe.err
			} else {
				err = fmt.Errorf("sym: invalid expression: %v", x)
			}
		}
	}()
	if r.memo != nil {
		r.matchParens()
	}
	e = r.expr(true)
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

// matchParens fills close for the current line in one pass, so finding a
// subterm's extent costs O(1) however deeply it nests.
func (r *Reader) matchParens() {
	if cap(r.close) < len(r.in) {
		r.close = make([]int32, len(r.in))
	}
	r.close = r.close[:len(r.in)]
	clear(r.close)
	open := r.open[:0]
	for i := 0; i < len(r.in); i++ {
		if c := r.in[i]; c == '(' {
			open = append(open, int32(i))
		} else if c == ')' && len(open) > 0 {
			r.close[open[len(open)-1]] = int32(i + 1)
			open = open[:len(open)-1]
		}
	}
	r.open = open
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

func (r *Reader) expr(root bool) *Expr {
	r.skipSpace()
	if r.pos >= len(r.in) {
		r.fail("unexpected end of input")
	}
	if r.in[r.pos] != '(' {
		t := r.token()
		switch t {
		case "true":
			return True
		case "false":
			return False
		}
		r.fail("unexpected token %q at %d", t, r.pos)
	}
	if root || r.memo == nil {
		return r.compound()
	}
	end := int(r.close[r.pos])
	if end == 0 {
		return r.compound() // unbalanced: fails as it would unmemoized
	}
	text := r.in[r.pos:end]
	if e, ok := r.memo[text]; ok {
		r.pos = end
		return e
	}
	e := r.compound()
	if r.pos == end {
		// A clone, so the key does not pin the whole line.
		r.memo[strings.Clone(text)] = e
	}
	return e
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
		e = Extract(r.expr(false), hi, lo)
	case "zext":
		w := r.int()
		e = ZExt(r.expr(false), w)
	case "shl":
		sh := r.int()
		e = Shl(r.expr(false), sh)
	case "lshr":
		sh := r.int()
		e = Lshr(r.expr(false), sh)
	default:
		var kids []*Expr
		for {
			r.skipSpace()
			if r.pos < len(r.in) && r.in[r.pos] == ')' {
				break
			}
			kids = append(kids, r.expr(false))
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
