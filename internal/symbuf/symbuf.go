// Package symbuf provides byte buffers whose contents are sym expressions:
// the representation of in-flight OpenFlow messages and data plane packets
// during symbolic execution.
//
// A Buffer holds one 8-bit expression per byte. Multi-byte field accessors
// read and write big-endian (network order) values as single expressions;
// writing a field variable splits it into byte extracts and reading it back
// re-concatenates them, which the sym package folds back into the original
// variable. This mirrors the paper's §4.1 environment-model simplification
// of replacing ntoh/hton with the identity: field values flow through the
// buffer without byte-shuffling constraints.
package symbuf

import (
	"fmt"

	"github.com/soft-testing/soft/internal/sym"
)

// Buffer is a fixed-length sequence of symbolic bytes.
type Buffer struct {
	bytes []*sym.Expr
}

// New returns a buffer of n zero bytes.
func New(n int) *Buffer {
	b := &Buffer{bytes: make([]*sym.Expr, n)}
	zero := sym.Const(8, 0)
	for i := range b.bytes {
		b.bytes[i] = zero
	}
	return b
}

// FromBytes returns a buffer holding the given concrete bytes.
func FromBytes(data []byte) *Buffer {
	b := &Buffer{bytes: make([]*sym.Expr, len(data))}
	for i, d := range data {
		b.bytes[i] = sym.Const(8, uint64(d))
	}
	return b
}

// Len returns the buffer length in bytes.
func (b *Buffer) Len() int { return len(b.bytes) }

// Byte returns the expression for byte i.
func (b *Buffer) Byte(i int) *sym.Expr { return b.bytes[i] }

// SetByte replaces byte i.
func (b *Buffer) SetByte(i int, e *sym.Expr) {
	if e.Width() != 8 {
		panic(fmt.Sprintf("symbuf: SetByte with width-%d expression", e.Width()))
	}
	b.bytes[i] = e
}

// Slice returns a view of n bytes starting at off. The view shares no
// storage with b (buffers are cheap: a slice of pointers).
func (b *Buffer) Slice(off, n int) *Buffer {
	out := &Buffer{bytes: make([]*sym.Expr, n)}
	copy(out.bytes, b.bytes[off:off+n])
	return out
}

// Clone returns an independent copy.
func (b *Buffer) Clone() *Buffer { return b.Slice(0, b.Len()) }

// Append returns a new buffer that is b followed by tail.
func (b *Buffer) Append(tail *Buffer) *Buffer {
	out := &Buffer{bytes: make([]*sym.Expr, 0, b.Len()+tail.Len())}
	out.bytes = append(out.bytes, b.bytes...)
	out.bytes = append(out.bytes, tail.bytes...)
	return out
}

// U8 reads the byte at off.
func (b *Buffer) U8(off int) *sym.Expr { return b.bytes[off] }

// U16 reads a big-endian 16-bit field.
func (b *Buffer) U16(off int) *sym.Expr {
	return sym.Concat(b.bytes[off], b.bytes[off+1])
}

// U32 reads a big-endian 32-bit field.
func (b *Buffer) U32(off int) *sym.Expr {
	return sym.ConcatAll(b.bytes[off], b.bytes[off+1], b.bytes[off+2], b.bytes[off+3])
}

// U48 reads a big-endian 48-bit field (MAC addresses).
func (b *Buffer) U48(off int) *sym.Expr {
	return sym.ConcatAll(b.bytes[off], b.bytes[off+1], b.bytes[off+2],
		b.bytes[off+3], b.bytes[off+4], b.bytes[off+5])
}

// U64 reads a big-endian 64-bit field (cookies, datapath ids).
func (b *Buffer) U64(off int) *sym.Expr {
	return sym.ConcatAll(b.bytes[off], b.bytes[off+1], b.bytes[off+2], b.bytes[off+3],
		b.bytes[off+4], b.bytes[off+5], b.bytes[off+6], b.bytes[off+7])
}

// Put writes e (any width that is a multiple of 8) big-endian at off.
func (b *Buffer) Put(off int, e *sym.Expr) {
	w := e.Width()
	if w%8 != 0 {
		panic(fmt.Sprintf("symbuf: Put with width %d not a byte multiple", w))
	}
	n := w / 8
	for i := 0; i < n; i++ {
		hi := w - 8*i - 1
		b.bytes[off+i] = sym.Extract(e, hi, hi-7)
	}
}

// PutConst writes an n-byte big-endian constant at off.
func (b *Buffer) PutConst(off, n int, v uint64) {
	b.Put(off, sym.Const(8*n, v))
}

// IsConcrete reports whether every byte is a constant.
func (b *Buffer) IsConcrete() bool {
	for _, e := range b.bytes {
		if !e.IsConst() {
			return false
		}
	}
	return true
}

// Concretize evaluates every byte under σ and returns the wire bytes —
// turning a path-condition model into a concrete reproducer message.
func (b *Buffer) Concretize(σ sym.Assignment) []byte {
	out := make([]byte, len(b.bytes))
	var ev sym.Evaluator
	for i, e := range b.bytes {
		out[i] = byte(ev.Eval(e, σ))
	}
	return out
}

// Vars collects the distinct symbolic variables appearing in the buffer.
func (b *Buffer) Vars() map[string]*sym.Expr {
	vars := make(map[string]*sym.Expr)
	for _, e := range b.bytes {
		sym.Vars(e, vars)
	}
	return vars
}

// String renders the buffer byte-by-byte: concrete bytes in hex, symbolic
// bytes as "??". Used in debugging and trace annotations.
func (b *Buffer) String() string {
	out := make([]byte, 0, 2*len(b.bytes))
	const hexdigits = "0123456789abcdef"
	for _, e := range b.bytes {
		if v, ok := e.ConstVal(); ok {
			out = append(out, hexdigits[v>>4], hexdigits[v&0xf])
		} else {
			out = append(out, '?', '?')
		}
	}
	return string(out)
}
