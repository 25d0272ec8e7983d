package group

import (
	"bytes"
	"strings"
	"testing"

	"github.com/soft-testing/soft/internal/agents/refswitch"
	"github.com/soft-testing/soft/internal/harness"
	"github.com/soft-testing/soft/internal/sym"
)

// TestSerialRoundTrip: Write → Read → Write is a fixed point, and the
// parsed result is structurally equal to the original.
func TestSerialRoundTrip(t *testing.T) {
	x := sym.Var("x", 16)
	in := &Result{
		Agent: "Reference Switch",
		Test:  "Packet Out",
		Groups: []Group{
			{
				Canonical: "pkt-out:port=FLOOD\nline two",
				Template:  "pkt-out:port=%v",
				Exprs:     []*sym.Expr{x},
				Cond:      sym.Ult(x, sym.Const(16, 25)),
				PathCount: 3,
				Model:     sym.Assignment{"x": 7, "po.port": 0xfffd},
			},
			{
				Canonical: "crash \"quoted\"\tand tab",
				Template:  "crash",
				Cond:      sym.Bool(true),
				Crashed:   true,
				PathCount: 1,
			},
		},
	}
	var first bytes.Buffer
	if err := in.Write(&first); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("Read of own output: %v", err)
	}
	var second bytes.Buffer
	if err := got.Write(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("Write/Read/Write not a fixed point:\n--- first\n%s\n--- second\n%s", &first, &second)
	}
	if got.Agent != in.Agent || got.Test != in.Test || len(got.Groups) != len(in.Groups) {
		t.Fatalf("header mismatch: %+v", got)
	}
	for i := range in.Groups {
		g, w := &got.Groups[i], &in.Groups[i]
		if g.Canonical != w.Canonical || g.Template != w.Template ||
			g.Crashed != w.Crashed || g.PathCount != w.PathCount {
			t.Fatalf("group %d mismatch: %+v vs %+v", i, g, w)
		}
		if !sym.Equal(g.Cond, w.Cond) {
			t.Fatalf("group %d condition mismatch", i)
		}
		if len(g.Model) != len(w.Model) {
			t.Fatalf("group %d model mismatch", i)
		}
	}
}

// TestReadRejectsGarbage pins the error paths: wrong magic, truncation.
func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := Read(strings.NewReader("soft-results v1\nend\n")); err == nil {
		t.Fatal("wrong magic accepted")
	}
	if _, err := Read(strings.NewReader("soft-groups v1\nagent \"a\"\n")); err == nil {
		t.Fatal("truncated file accepted")
	}
}

// TestSerialRewriteByteIdentical: Write∘Read is the identity on the bytes
// of the groups file of a real multi-path result.
func TestSerialRewriteByteIdentical(t *testing.T) {
	tt, _ := harness.TestByName("Packet Out")
	g := Paths(harness.Explore(refswitch.New(), tt, harness.Options{WantModels: true}).Serialized())
	if len(g.Groups) < 2 {
		t.Fatalf("Packet Out on ref: %d groups, want several", len(g.Groups))
	}
	var first bytes.Buffer
	if err := g.Write(&first); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := got.Write(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("Write∘Read changed the bytes of a Packet Out groups file")
	}
}
