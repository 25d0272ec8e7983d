package sym

import (
	"bytes"
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

// TestCodecMemoMatchesPlain: over sequences with shared subterms, one
// memoizing Reader gives the results per-line Parse gives, and one
// memoizing Printer gives the bytes per-line String gives.
func TestCodecMemoMatchesPlain(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		lines := sharedLines(r, 60)
		pr := NewPrinter()
		var memo, plain []byte
		for _, e := range lines {
			memo = append(pr.Append(memo, e), '\n')
			plain = append(append(plain, e.String()...), '\n')
		}
		if !bytes.Equal(memo, plain) {
			t.Fatalf("seed %d: memoized Printer output differs from String", seed)
		}
		if len(pr.memo) == 0 {
			t.Fatalf("seed %d: Printer memoized nothing", seed)
		}
		rd := NewReader()
		hits := 0
		for i, line := range strings.Split(strings.TrimSuffix(string(plain), "\n"), "\n") {
			before := len(rd.memo)
			got, err := rd.Parse(line)
			if err != nil {
				t.Fatalf("seed %d line %d: Reader: %v", seed, i, err)
			}
			want, err := Parse(line)
			if err != nil {
				t.Fatalf("seed %d line %d: Parse: %v", seed, i, err)
			}
			if !Equal(got, want) || !Equal(got, lines[i]) {
				t.Fatalf("seed %d line %d: Reader gave %v, Parse %v, want %v", seed, i, got, want, lines[i])
			}
			if strings.Count(line, "(") > 1 && len(rd.memo) == before {
				hits++
			}
		}
		if hits == 0 {
			t.Fatalf("seed %d: no line was answered from the memo", seed)
		}
	}
}

// TestReaderMemoKeepsErrors: a malformed line whose subterms were
// memoized by earlier lines fails, with the error the plain parser gives.
func TestReaderMemoKeepsErrors(t *testing.T) {
	good := []string{
		"(land (eq (var a 8) (const 8 1)) (ult (var b 8) (const 8 2)))",
		"(eq (extract 7 0 (var c 16)) (const 8 3))",
	}
	bad := []string{
		"(land (eq (var a 8) (const 8 1)) (ult (var b 8) (const 8 2))",   // root unclosed
		"(land (eq (var a 8) (const 8 1)) (ult (var b 8) (const 8 2))))", // trailing ')'
		"(land (eq (var a 8) (const 8 1)) junk)",
		"(add (var a 8) (var c 16))",                                  // width mismatch over memoized kids
		"(not (eq (var a 8) (const 8 1)) (eq (var a 8) (const 8 1)))", // arity
		"(eq (extract 7 0 (var c 16)) (const 8 3)) (var a 8)",
		"(lor (eq (var a 8) (const 8 1)) (frob (var b 8)))",
		"(ite (ult (var b 8) (const 8 2)) (var a 8))",
		"(eq (extract 7 0 (var c 16) (const 8 3))",
	}
	rd := NewReader()
	for _, s := range good {
		if _, err := rd.Parse(s); err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
	}
	for _, s := range bad {
		_, err := rd.Parse(s)
		_, want := Parse(s)
		if err == nil || want == nil {
			t.Fatalf("%q: memo Reader error %v, Parse error %v; want both to fail", s, err, want)
		}
		if err.Error() != want.Error() {
			t.Fatalf("%q: memo Reader error %q, Parse error %q", s, err, want)
		}
	}
}

// TestReaderMemoMutations: every truncation and single-byte deletion of
// lines that share memoized subterms parses under one Reader exactly as
// Parse parses it, result or error.
func TestReaderMemoMutations(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	rd := NewReader()
	for _, e := range sharedLines(r, 20) {
		line := e.String()
		if _, err := rd.Parse(line); err != nil {
			t.Fatalf("Parse(%q): %v", line, err)
		}
		for i := 0; i < len(line); i++ {
			for _, m := range []string{line[:i], line[:i] + line[i+1:]} {
				checkSameParse(t, rd, m)
			}
		}
	}
}

func checkSameParse(t *testing.T, rd *Reader, s string) {
	t.Helper()
	got, err := rd.Parse(s)
	want, wantErr := Parse(s)
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("%q: memo Reader error %v, Parse error %v", s, err, wantErr)
	case err != nil && err.Error() != wantErr.Error():
		t.Fatalf("%q: memo Reader error %q, Parse error %q", s, err, wantErr)
	case err == nil && !Equal(got, want):
		t.Fatalf("%q: memo Reader gave %v, Parse %v", s, got, want)
	}
}

// FuzzParse: on any string, a memoizing Reader primed with related text
// and the plain Parse both reject it with the same error or both return
// equal expressions, and a memoizing Printer renders the result as String
// does.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"(land (eq (var a 8) (const 8 1)) (ult (var b 8) (const 8 2)))",
		"(eq (extract 7 0 (var c 16)) (const 8 3))",
		"(ite (ult (var b 8) (const 8 2)) (var a 8) (zext 8 (extract 3 0 (var a 8))))",
		"(lor true (lnot (eq (shl 1 (var a 8)) (lshr 2 (var b 8)))))",
		"(add (var a 8) (var c 16))",
		"(land (eq (var a 8) (const 8 1))",
		"", "true", "((", "))",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		rd := NewReader()
		for _, p := range seeds[:4] {
			rd.Parse(p)
		}
		checkSameParse(t, rd, s)
		checkSameParse(t, rd, s) // again, now with s's own subterms memoized
		if e, err := Parse(s); err == nil {
			if got := string(NewPrinter().Append(nil, e)); got != e.String() {
				t.Fatalf("Printer rendered %q, String %q", got, e.String())
			}
		}
	})
}
