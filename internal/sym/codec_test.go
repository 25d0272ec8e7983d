package sym

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// sharedLines renders n random lines built from a small pool of random
// subterms, so later lines repeat subterms of earlier ones the way path
// conditions in one results file share conjuncts.
func sharedLines(r *rand.Rand, n int) []*Expr {
	var pool []*Expr
	for len(pool) < 12 {
		pool = append(pool, randExpr(r, 3, 16, r.Intn(2) == 0))
	}
	pick := func(wantBool bool) *Expr {
		for {
			if e := pool[r.Intn(len(pool))]; e.IsBool() == wantBool {
				return e
			}
		}
	}
	var out []*Expr
	for len(out) < n {
		var e *Expr
		switch r.Intn(5) {
		case 0:
			e = LAnd(pick(true), pick(true), pick(true))
		case 1:
			e = LOr(pick(true), LNot(pick(true)))
		case 2:
			e = Eq(pick(false), Add(pick(false), pick(false)))
		case 3:
			e = Ite(pick(true), pick(false), Extract(ZExt(pick(false), 32), 23, 8))
		default:
			e = randExpr(r, 4, 16, r.Intn(2) == 0)
			pool = append(pool, e)
		}
		out = append(out, e)
	}
	return out
}

// writeStream renders es as one sharing stream, one line each.
func writeStream(es []*Expr) []string {
	pr := NewPrinter()
	var lines []string
	for _, e := range es {
		lines = append(lines, string(pr.Append(nil, e)))
	}
	return lines
}

// TestCodecMemoMatchesPlain: over sequences with shared subterms, one
// memoizing tree Printer gives the bytes per-line String gives, and one
// sharing stream is smaller and reads back, through one Reader, to the
// very nodes that were written.
func TestCodecMemoMatchesPlain(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		lines := sharedLines(r, 60)
		pr := NewTreePrinter()
		var memo, plain []byte
		for _, e := range lines {
			memo = append(pr.Append(memo, e), '\n')
			plain = append(append(plain, e.String()...), '\n')
		}
		if !bytes.Equal(memo, plain) {
			t.Fatalf("seed %d: memoized tree Printer output differs from String", seed)
		}
		if len(pr.memo) == 0 {
			t.Fatalf("seed %d: tree Printer memoized nothing", seed)
		}
		shared := writeStream(lines)
		if n := len(strings.Join(shared, "\n")) + 1; n >= len(plain) {
			t.Fatalf("seed %d: sharing stream is %d bytes, tree text %d", seed, n, len(plain))
		}
		var rd Reader
		for i, line := range shared {
			got, err := rd.Parse(line)
			if err != nil {
				t.Fatalf("seed %d line %d: Reader: %v", seed, i, err)
			}
			if got != lines[i] {
				t.Fatalf("seed %d line %d: Reader gave %v, want the node %v", seed, i, got, lines[i])
			}
		}
	}
}

// TestStreamReaderKeepsErrors: a malformed line fails under a Reader that
// has read earlier lines of a stream with the error Parse gives, and
// leaves the stream's numbering as it was.
func TestStreamReaderKeepsErrors(t *testing.T) {
	good := []*Expr{
		MustParse("(land (eq (var a 8) (const 8 1)) (ult (var b 8) (const 8 2)))"),
		MustParse("(eq (extract 7 0 (var c 16)) (const 8 3))"),
	}
	bad := []string{
		"(land (eq (var a 8) (const 8 1)) (ult (var b 8) (const 8 2))",   // root unclosed
		"(land (eq (var a 8) (const 8 1)) (ult (var b 8) (const 8 2))))", // trailing ')'
		"(land (eq (var a 8) (const 8 1)) junk)",
		"(add (var a 8) (var c 16))",                                  // width mismatch
		"(not (eq (var a 8) (const 8 1)) (eq (var a 8) (const 8 1)))", // arity
		"(eq (extract 7 0 (var c 16)) (const 8 3)) (var a 8)",
		"(lor (eq (var a 8) (const 8 1)) (frob (var b 8)))",
		"(ite (ult (var b 8) (const 8 2)) (var a 8))",
		"(eq (extract 7 0 (var c 16) (const 8 3))",
	}
	var rd Reader
	shared := writeStream(good)
	for _, s := range shared {
		if _, err := rd.Parse(s); err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
	}
	n := len(rd.nodes)
	for _, s := range bad {
		_, err := rd.Parse(s)
		_, want := Parse(s)
		if err == nil || want == nil {
			t.Fatalf("%q: stream Reader error %v, Parse error %v; want both to fail", s, err, want)
		}
		if err.Error() != want.Error() {
			t.Fatalf("%q: stream Reader error %q, Parse error %q", s, err, want)
		}
		if len(rd.nodes) != n {
			t.Fatalf("%q: failed line left %d numbered nodes, want %d", s, len(rd.nodes), n)
		}
	}
}

// TestReferenceErrors: a reference must name a node already finished in
// the stream. Forward, dangling, self and malformed references are errors.
func TestReferenceErrors(t *testing.T) {
	for _, s := range []string{
		"#0",                                   // nothing numbered yet
		"(add (var a 8) #1)",                   // forward: #1 is the add itself
		"(add #0 #0)",                          // self: #0 finishes only after its kids
		"(not #0)",                             // self
		"(eq (var a 8) #7)",                    // dangling
		"(eq (var a 8) #-1)",                   // negative
		"(eq (var a 8) #+0)",                   // signed
		"(eq (var a 8) #x)",                    // not a number
		"(eq (var a 8) #)",                     // empty
		"(eq (var a 8) #18446744073709551616)", // overflows
	} {
		if e, err := Parse(s); err == nil {
			t.Fatalf("%q parsed to %v, want an error", s, e)
		}
	}
	// Within one line, numbering is post-order: (var a 8) is #0 and
	// (const 8 1) is #1.
	e, err := Parse("(land (eq (var a 8) (const 8 1)) (ult #1 #0))")
	if err != nil {
		t.Fatal(err)
	}
	want := MustParse("(land (eq (var a 8) (const 8 1)) (ult (const 8 1) (var a 8)))")
	if e != want {
		t.Fatalf("got %v, want %v", e, want)
	}
}

// TestSharedChainLinear: a 64-level shared Add(e, e) has a tree of 2^64
// nodes, but its stream is one line per level and reads back to the same
// node, in bytes and time linear in the levels.
func TestSharedChainLinear(t *testing.T) {
	e := Var("sz", 16)
	for i := 0; i < 64; i++ {
		e = Add(e, e)
	}
	if got := e.Size(); got != math.MaxInt32 {
		t.Fatalf("Size() = %d, want math.MaxInt32", got)
	}
	line := NewPrinter().Append(nil, e)
	if len(line) > 64*20 {
		t.Fatalf("shared chain is %d bytes, want linear in its 64 levels", len(line))
	}
	var rd Reader
	got, err := rd.Parse(string(line))
	if err != nil {
		t.Fatal(err)
	}
	if got != e || len(rd.nodes) != 65 {
		t.Fatalf("read back %d nodes, want the same root over 65", len(rd.nodes))
	}
}

// TestStreamReaderMutations: every truncation and single-byte deletion of
// tree lines parses under a stream Reader exactly as Parse parses it,
// result or error; the same mutations of sharing lines never panic, and
// any that parse still render and re-read to the same node.
func TestStreamReaderMutations(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	lines := sharedLines(r, 20)
	shared := writeStream(lines)
	var rd Reader
	for i, e := range lines {
		// Each mutation is read by a copy of the stream's Reader, so one
		// that parses does not number nodes the real next line lacks. (The
		// copy may write past rd's nodes, never into them.)
		line := e.String()
		for j := 0; j < len(line); j++ {
			for _, m := range []string{line[:j], line[:j] + line[j+1:]} {
				tmp := rd
				checkSameParse(t, &tmp, m)
			}
		}
		s := shared[i]
		for j := 0; j < len(s); j++ {
			for _, m := range []string{s[:j], s[:j] + s[j+1:]} {
				tmp := rd
				if got, err := tmp.Parse(m); err == nil {
					checkRoundTrip(t, got)
				}
			}
		}
		if _, err := rd.Parse(s); err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
	}
}

func checkSameParse(t *testing.T, rd *Reader, s string) {
	t.Helper()
	got, err := rd.Parse(s)
	want, wantErr := Parse(s)
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("%q: stream Reader error %v, Parse error %v", s, err, wantErr)
	case err != nil && err.Error() != wantErr.Error():
		t.Fatalf("%q: stream Reader error %q, Parse error %q", s, err, wantErr)
	case err == nil && !Equal(got, want):
		t.Fatalf("%q: stream Reader gave %v, Parse %v", s, got, want)
	}
}

// checkRoundTrip: e goes through a fresh sharing stream and through its
// tree text back to itself.
func checkRoundTrip(t *testing.T, e *Expr) {
	t.Helper()
	var rd Reader
	line := string(NewPrinter().Append(nil, e))
	if got, err := rd.Parse(line); err != nil || !Equal(got, e) {
		t.Fatalf("sharing line %q read back as %v, %v; want %v", line, got, err, e)
	}
	if got, err := Parse(e.String()); err != nil || !Equal(got, e) {
		t.Fatalf("tree text %q read back as %v, %v", e.String(), got, err)
	}
}

// FuzzParse: on any string, a Reader primed with a sharing stream never
// panics; without references it agrees with the plain Parse, result or
// error; whatever it accepts goes through a fresh sharing stream and
// through String back to an equal expression, and the memoizing tree
// Printer renders it as String does.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"(land (eq (var a 8) (const 8 1)) (ult (var b 8) (const 8 2)))",
		"(eq (extract 7 0 (var c 16)) (const 8 3))",
		"(ite (ult (var b 8) (const 8 2)) (var a 8) (zext 8 (extract 3 0 (var a 8))))",
		"(lor true (lnot (eq (shl 1 (var a 8)) (lshr 2 (var b 8)))))",
		"(add (var a 8) (var c 16))",
		"(land (eq (var a 8) (const 8 1))",
		"", "true", "((", "))",
		// References: valid after the primer, dangling, forward, self.
		"#0", "(eq #0 #1)", "(land #2 (ult #3 #4))", "(add #0 (var a 8))",
		"#99", "(add (var a 8) #1000)", "(not #13)", "(add #0 #0)", "#", "#-1",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	var primer []*Expr
	for _, s := range seeds[:4] {
		primer = append(primer, MustParse(s))
	}
	primed := writeStream(primer)
	f.Fuzz(func(t *testing.T, s string) {
		var rd Reader
		for _, p := range primed {
			if _, err := rd.Parse(p); err != nil {
				t.Fatalf("primer %q: %v", p, err)
			}
		}
		if !strings.Contains(s, "#") {
			checkSameParse(t, &rd, s)
		}
		e, err := rd.Parse(s)
		if err != nil {
			return
		}
		checkRoundTrip(t, e)
		if got := string(NewTreePrinter().Append(nil, e)); got != e.String() {
			t.Fatalf("tree Printer rendered %q, String %q", got, e.String())
		}
	})
}
