package group

import (
	"bytes"
	"fmt"
	"slices"
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

// TestReadRejectsMiscounts: a groups file whose records disagree with its
// counts is an error. Each mutation removes or repeats one line of a real
// groups file.
func TestReadRejectsMiscounts(t *testing.T) {
	tt, _ := harness.TestByName("Packet Out")
	g := Paths(harness.Explore(refswitch.New(), tt, harness.Options{WantModels: true}).Serialized())
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(buf.String(), "\n")
	nth := func(prefix string, n int) int {
		for i, l := range lines {
			if strings.HasPrefix(l, prefix) {
				if n == 0 {
					return i
				}
				n--
			}
		}
		t.Fatalf("no line %d starting with %q", n, prefix)
		return -1
	}
	without := func(i int) []string { return slices.Delete(slices.Clone(lines), i, i+1) }
	twice := func(i int) []string { return slices.Insert(slices.Clone(lines), i, lines[i]) }
	last := len(g.Groups) - 1
	cases := []struct {
		name  string
		lines []string
		want  string
	}{
		{"cond deleted", without(nth("cond ", 3)), "has 0 cond lines"},
		{"cond repeated", twice(nth("cond ", 3)), "has 2 cond lines"},
		{"expr deleted", without(nth("expr ", 0)), "its nexprs line says"},
		{"nexprs deleted", without(nth("nexprs ", 0)), "its nexprs line says -1"},
		{"group header deleted", without(nth("group ", 5)), "has 2 cond lines"},
		{"last group deleted", append(slices.Clone(lines[:nth("group ", last)]), "end\n"),
			fmt.Sprintf("%d groups, the groups line says %d", last, last+1)},
		{"groups deleted", without(nth("groups ", 0)), "the groups line says -1"},
		{"groups repeated", twice(nth("groups ", 0)), "bad groups line"},
		{"group header trailing garbage", slices.Replace(slices.Clone(lines), nth("group ", 1), nth("group ", 1)+1,
			strings.TrimSuffix(lines[nth("group ", 1)], "\n")+" x\n"), "bad group line"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Read(strings.NewReader(strings.Join(c.lines, "")))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("got error %v, want one containing %q", err, c.want)
			}
		})
	}
}

// FuzzReadGroups throws arbitrary bytes at the groups reader: it must
// reject or accept without panicking, accept only input that starts with
// the magic line, and whatever it accepts must write and read back to the
// same bytes.
func FuzzReadGroups(f *testing.F) {
	f.Add([]byte("soft-groups v1\nagent \"a\"\ntest \"t\"\ngroups 0\nend\n"))
	f.Add([]byte("soft-groups v1\nagent \"a\"\ntest \"t\"\ngroups 1\ngroup 0 paths=2 crashed=false\n" +
		"canonical \"c\"\ntemplate \"t\"\ncond (eq (var x 8) (const 8 1))\nnexprs 2\nexpr (var x 8)\nexpr #0\nmodel x=1\nend\n"))
	f.Add([]byte("soft-groups v1\ngroups 1\ngroup 0 paths=1 crashed=true\ncanonical \"c\"\ntemplate \"t\"\n" +
		"cond (land (ult (var x 8) (const 8 9)) #1)\nnexprs 0\nend\n")) // self reference
	f.Add([]byte("soft-groups v1\ngroups 1\ngroup 0 paths=1 crashed=true\ncanonical \"c\"\ntemplate \"t\"\n" +
		"cond #3\nnexprs 0\nend\n")) // dangling reference
	f.Add([]byte("soft-groups v1\ngroups 1\ngroup 0 paths=1 crashed=true\ncanonical \"c\"\ntemplate \"t\"\n" +
		"cond (lnot #1 (var x 1))\nnexprs 0\nend\n")) // forward reference
	f.Add([]byte("soft-groups v1\nend\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if !bytes.HasPrefix(data, []byte(groupsMagic+"\n")) {
			t.Fatalf("accepted input without the %q header", groupsMagic)
		}
		var first, second bytes.Buffer
		if err := g.Write(&first); err != nil {
			t.Fatal(err)
		}
		again, err := Read(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("Read of own output: %v\n%s", err, first.Bytes())
		}
		if err := again.Write(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("Write∘Read not a fixed point:\n%s\n---\n%s", first.Bytes(), second.Bytes())
		}
	})
}
