package harness

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/soft-testing/soft/internal/agents/refswitch"
	"github.com/soft-testing/soft/internal/sym"
	"github.com/soft-testing/soft/internal/trace"
)

// buildResult assembles a Result from fuzzer-chosen scalars. Traces are
// built through trace.FromOutputs like real explorations; unrecognized
// output values become "raw:" events, so arbitrary strings are legal.
func buildResult(agent, test, out1, out2 string, msgCount uint16, crashed bool, bound uint64, modelVal uint64, truncated, cancelled bool) *Result {
	x := sym.Var("x", 16)
	y := sym.Var("po.port", 16)
	cond1 := sym.Ult(x, sym.Const(16, bound&0xffff))
	cond2 := sym.LAnd(sym.LNot(cond1), sym.EqConst(y, modelVal&0xffff))
	r := &Result{
		Agent:     agent,
		Test:      test,
		MsgCount:  int(msgCount),
		Elapsed:   42 * time.Millisecond,
		Truncated: truncated,
		Cancelled: cancelled,
	}
	tr1 := trace.FromOutputs([]any{out1}, false)
	tr2 := trace.FromOutputs([]any{out1, out2}, crashed)
	r.Paths = append(r.Paths,
		PathResult{ID: 0, Cond: cond1, Template: tr1.Template(), Canonical: tr1.Canonical(), Exprs: tr1.Exprs(), Branches: 1},
		PathResult{ID: 1, Cond: cond2, Template: tr2.Template(), Canonical: tr2.Canonical(), Exprs: tr2.Exprs(),
			Crashed: crashed, Branches: 2, Model: sym.Assignment{"x": bound & 0xffff, "po.port": modelVal & 0xffff}},
	)
	return r
}

// FuzzResultsRoundTrip is the satellite round-trip property: any Result
// assembled from fuzzer inputs must survive Write → ReadResults with every
// serialized field intact.
func FuzzResultsRoundTrip(f *testing.F) {
	f.Add("Reference Switch", "Packet Out", "msg:ERROR/BAD_ACTION/4", "pkt-out:port=FLOOD", uint16(3), false, uint64(25), uint64(0xfffd), false, false)
	f.Add("", "", "", "", uint16(0), true, uint64(0), uint64(0), true, true)
	f.Add("agent \"quoted\"", "test\nnewline", "line1\nline2", "tab\tand\\backslash", uint16(65535), true, uint64(1<<40), uint64(7), true, false)
	f.Add("ünïcödé", "日本語", "<silent>", "raw: % signs %d %q", uint16(9), false, uint64(12345), uint64(54321), false, true)
	f.Fuzz(func(t *testing.T, agent, test, out1, out2 string, msgCount uint16, crashed bool, bound, modelVal uint64, truncated, cancelled bool) {
		r := buildResult(agent, test, out1, out2, msgCount, crashed, bound, modelVal, truncated, cancelled)

		var buf bytes.Buffer
		if err := r.Write(&buf); err != nil {
			t.Fatalf("Write: %v", err)
		}
		got, err := ReadResults(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("ReadResults of own output: %v\n--- file ---\n%s", err, buf.Bytes())
		}

		if err := roundTripMismatch(got, r); err != nil {
			t.Fatal(err)
		}
	})
}

// roundTripMismatch compares a result read back from a results file with
// the result written, on every field the file carries: coverage at the
// file's six decimals, and models up to a missing versus an empty map.
func roundTripMismatch(got, want *Result) error {
	if got.Agent != want.Agent || got.Test != want.Test || got.MsgCount != want.MsgCount {
		return fmt.Errorf("header mismatch: got (%q, %q, %d), want (%q, %q, %d)",
			got.Agent, got.Test, got.MsgCount, want.Agent, want.Test, want.MsgCount)
	}
	if got.Elapsed != want.Elapsed {
		return fmt.Errorf("elapsed mismatch: %v vs %v", got.Elapsed, want.Elapsed)
	}
	if g, w := fmt.Sprintf("%f %f", got.InstrPct, got.BranchPct), fmt.Sprintf("%f %f", want.InstrPct, want.BranchPct); g != w {
		return fmt.Errorf("coverage mismatch: %s vs %s", g, w)
	}
	if got.Truncated != want.Truncated || got.Cancelled != want.Cancelled {
		return fmt.Errorf("partial flags mismatch: got (%t, %t), want (%t, %t)",
			got.Truncated, got.Cancelled, want.Truncated, want.Cancelled)
	}
	if len(got.Paths) != len(want.Paths) {
		return fmt.Errorf("path count mismatch: %d vs %d", len(got.Paths), len(want.Paths))
	}
	for i := range want.Paths {
		gp, wp := &got.Paths[i], &want.Paths[i]
		if gp.ID != wp.ID || gp.Crashed != wp.Crashed || gp.Branches != wp.Branches {
			return fmt.Errorf("path %d header mismatch: %+v vs %+v", i, gp, wp)
		}
		if !sym.Equal(gp.Cond, wp.Cond) {
			return fmt.Errorf("path %d condition mismatch: %s vs %s", i, gp.Cond, wp.Cond)
		}
		if gp.Template != wp.Template || gp.Canonical != wp.Canonical {
			return fmt.Errorf("path %d trace mismatch: (%q, %q) vs (%q, %q)",
				i, gp.Template, gp.Canonical, wp.Template, wp.Canonical)
		}
		if len(gp.Exprs) != len(wp.Exprs) {
			return fmt.Errorf("path %d expr count mismatch: %d vs %d", i, len(gp.Exprs), len(wp.Exprs))
		}
		for j := range wp.Exprs {
			if !sym.Equal(gp.Exprs[j], wp.Exprs[j]) {
				return fmt.Errorf("path %d expr %d mismatch", i, j)
			}
		}
		if !maps.Equal(gp.Model, wp.Model) {
			return fmt.Errorf("path %d model mismatch: %v vs %v", i, gp.Model, wp.Model)
		}
	}
	return nil
}

// readResultsSeeds are FuzzReadResults's seeds and whether ReadResults
// accepts each one. TestReadResultsSeeds checks the accept column, so a
// plain go test reaches the fuzz target's round-trip assertion.
var readResultsSeeds = []struct {
	data   string
	accept bool
}{
	{"soft-results v1\n" + seedHead + "paths 0\nend\n", true},
	{"soft-results v2\n" + seedHead + "partial truncated=true cancelled=false\npaths 0\nend\n", true},
	{"soft-results v1\n" + seedHead + "paths 1\n" + seedPath + "cond (ult (var x 8) (const 8 9))\nnexprs 2\nexpr #0\nexpr (add #0 #1)\nend\n", true},
	{"soft-results v1\nagent \"a\"\ntest \"t\"\npaths 0\nend\n", false}, // no msgcount, elapsed, coverage
	{"soft-results v2\nend\n", false},
	{"", false},
	{"agent \"a\"\n", false},
	{"soft-results v1\n" + seedHead + "paths 1\n" + seedPath + "cond (ult (var x 8) #2)\nnexprs 0\nend\n", false},       // forward
	{"soft-results v1\n" + seedHead + "paths 1\n" + seedPath + "cond #0\nnexprs 0\nend\n", false},                       // dangling
	{"soft-results v1\n" + seedHead + "paths 1\n" + seedPath + "cond (lnot (eq #1 (var x 8)))\nnexprs 0\nend\n", false}, // self
}

// seedHead and seedPath are a results file's header lines and a path's
// first lines, for readResultsSeeds.
const (
	seedHead = "agent \"a\"\ntest \"t\"\nmsgcount 1\nelapsed 5\ncoverage 1.000000 2.000000\n"
	seedPath = "path 0 crashed=false branches=1\ntemplate \"t\"\ncanonical \"c\"\n"
)

// TestReadResultsSeeds: ReadResults accepts exactly the seeds marked so.
func TestReadResultsSeeds(t *testing.T) {
	for i, s := range readResultsSeeds {
		if _, err := ReadResults(strings.NewReader(s.data)); (err == nil) != s.accept {
			t.Errorf("seed %d: got error %v, want accept=%t\n%s", i, err, s.accept, s.data)
		}
	}
}

// FuzzReadResults throws arbitrary bytes at the parser: it must reject or
// accept without panicking, never accept input that does not start with
// the versioned magic line, and whatever it accepts must write and read
// back to the same bytes.
func FuzzReadResults(f *testing.F) {
	for _, s := range readResultsSeeds {
		f.Add([]byte(s.data))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := ReadResults(bytes.NewReader(data))
		if err != nil {
			return
		}
		if !bytes.HasPrefix(data, []byte(resultsMagic+"\n")) && !bytes.HasPrefix(data, []byte(resultsMagicV2+"\n")) {
			t.Fatalf("accepted input without %q/%q header: %+v", resultsMagic, resultsMagicV2, res)
		}
		var first, second bytes.Buffer
		if err := res.Write(&first); err != nil {
			t.Fatal(err)
		}
		again, err := ReadResults(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("ReadResults of own output: %v\n%s", err, first.Bytes())
		}
		if err := again.Write(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("Write∘ReadResults not a fixed point:\n%s\n---\n%s", first.Bytes(), second.Bytes())
		}
	})
}

// TestReadResultsBadMagic pins the versioned error for missing or wrong
// magic lines: the message must name the expected header so users of old
// or foreign files know what format is required.
func TestReadResultsBadMagic(t *testing.T) {
	cases := []struct {
		name, input string
	}{
		{"empty", ""},
		{"garbage", "not a results file at all\n"},
		{"wrong version", "soft-results v9\nagent \"a\"\nend\n"},
		{"missing header", "agent \"Reference Switch\"\ntest \"Packet Out\"\nend\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ReadResults(strings.NewReader(c.input))
			if err == nil {
				t.Fatal("ReadResults accepted input without the magic line")
			}
			if !strings.Contains(err.Error(), resultsMagic) {
				t.Fatalf("error %q does not name the expected %q header", err, resultsMagic)
			}
		})
	}
}

// TestReadResultsTruncated pins the error for a file that starts correctly
// but ends before the "end" terminator.
func TestReadResultsTruncated(t *testing.T) {
	var buf bytes.Buffer
	r := buildResult("a", "t", "out", "out2", 1, false, 10, 20, false, false)
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	cut := bytes.LastIndex(full, []byte("end\n"))
	_, err := ReadResults(bytes.NewReader(full[:cut]))
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncated file: got err %v, want truncation error", err)
	}
}

// TestReadResultsMalformed: malformed lines are errors, never panics or
// silently zeroed fields. A store entry that fails here is a cache miss.
func TestReadResultsMalformed(t *testing.T) {
	const head = "soft-results v1\nagent \"a\"\ntest \"t\"\n"
	const path = "path 0 crashed=false branches=1\n"
	cases := []struct{ name, body, want string }{
		{"template before path", "template \"x\"\n", "template before path"},
		{"canonical before path", "canonical \"x\"\n", "canonical before path"},
		{"cond before path", "cond true\n", "cond before path"},
		{"expr before path", "expr (var x 8)\n", "expr before path"},
		{"model before path", "model x=1\n", "model before path"},
		{"bad path flags", "path 0 crashed=maybe branches=x\n", "bad path line"},
		{"bad path id", "path x crashed=false branches=1\n", "bad path line"},
		{"bad coverage", "coverage x y\n", "bad coverage line"},
		{"bad partial", "partial truncated=maybe cancelled=false\n", "bad partial line"},
		{"bad msgcount", "msgcount x\n", "bad msgcount line"},
		{"bad paths", "paths x\n", "bad paths line"},
		{"negative paths", "paths -1\n", "bad paths line"},
		{"bad elapsed", "elapsed 1.5\n", "bad elapsed line"},
		{"bad agent", "agent a\n", "bad agent line"},
		{"bad template", path + "template \"x\" junk\n", "bad template line"},
		{"bad cond", path + "cond (eq (var x 8))\n", "bad cond line"},
		{"bad expr", path + "expr (var x 99)\n", "bad expr line"},
		{"bad model", path + "model x\n", "bad model entry"},
		{"unknown field", "frob 1\n", "unknown field"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ReadResults(strings.NewReader(head + c.body + "end\n"))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("got error %v, want one containing %q", err, c.want)
			}
		})
	}
	// A corrupt count is an error at the end, never an allocation size.
	if _, err := ReadResults(strings.NewReader(head + "paths 999999999999999\nend\n")); err == nil ||
		!strings.Contains(err.Error(), "the paths line says 999999999999999") {
		t.Fatalf("huge paths count: got error %v, want a count mismatch", err)
	}
}

// TestReadResultsRejectsMiscounts: a file whose records disagree with its
// counts is an error, not a silently different result. Each mutation
// removes or repeats one line of a real results file.
func TestReadResultsRejectsMiscounts(t *testing.T) {
	tt, _ := TestByName("Packet Out")
	var buf bytes.Buffer
	if err := Explore(refswitch.New(), tt, Options{WantModels: true}).Write(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(buf.String(), "\n")
	// nth returns the index of the n-th line starting with prefix.
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
	paths, path1 := nth("paths ", 0), nth("path ", 1)
	cases := []struct {
		name  string
		lines []string
		want  string
	}{
		{"cond deleted", without(nth("cond ", 3)), "has 0 cond lines"},
		{"cond repeated", twice(nth("cond ", 3)), "has 2 cond lines"},
		{"template deleted", without(nth("template ", 3)), "has 0 template lines"},
		{"template repeated", twice(nth("template ", 3)), "has 2 template lines"},
		{"canonical deleted", without(nth("canonical ", 3)), "has 0 canonical lines"},
		{"canonical repeated", twice(nth("canonical ", 3)), "has 2 canonical lines"},
		{"model repeated", twice(nth("model ", 3)), "has 2 model lines"},
		{"expr deleted", without(nth("expr ", 0)), "its nexprs line says"},
		{"expr repeated", twice(nth("expr ", 0)), "its nexprs line says"},
		{"nexprs deleted", without(nth("nexprs ", 0)), "its nexprs line says -1"},
		{"path header deleted", without(nth("path ", 5)), "has 2 cond lines"},
		{"last path deleted", append(slices.Clone(lines[:nth("path ", 145)]), "end\n"), "145 paths, the paths line says 146"},
		{"paths deleted", without(paths), "the paths line says -1"},
		{"paths repeated", twice(paths), "bad paths line"},
		{"paths after a path", slices.Insert(without(paths), path1-1, lines[paths]), "bad paths line"},
		{"path header trailing garbage", slices.Replace(slices.Clone(lines), path1, path1+1,
			strings.TrimSuffix(lines[path1], "\n")+" x\n"), "bad path line"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ReadResults(strings.NewReader(strings.Join(c.lines, "")))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("got error %v, want one containing %q", err, c.want)
			}
		})
	}
}

// TestReadResultsRejectsBadHeaders: each header line appears exactly once,
// before the paths line, and the partial line appears in a v2 file and
// only there, marking a truncated or cancelled run. A file that breaks
// this is an error, not a result with another agent's name or a partial
// flag an exhaustive file never carries.
func TestReadResultsRejectsBadHeaders(t *testing.T) {
	tt, _ := TestByName("Concrete")
	var buf bytes.Buffer
	if err := Explore(refswitch.New(), tt, Options{}).Write(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(buf.String(), "\n")
	if lines[0] != resultsMagic+"\n" {
		t.Fatalf("exhaustive file starts with %q", lines[0])
	}
	at := func(prefix string) int {
		return slices.IndexFunc(lines, func(l string) bool { return strings.HasPrefix(l, prefix) })
	}
	paths := at("paths ")
	insert := func(i int, l string) []string { return slices.Insert(slices.Clone(lines), i, l) }
	without := func(prefix string) []string { return slices.Delete(slices.Clone(lines), at(prefix), at(prefix)+1) }
	v2 := func(ls []string) []string { return append([]string{resultsMagicV2 + "\n"}, ls[1:]...) }
	cases := []struct {
		name  string
		lines []string
		want  string
	}{
		{"second agent line", insert(1, "agent \"Other Switch\"\n"), "bad agent line: repeated"},
		{"partial in v1", insert(paths, "partial truncated=true cancelled=false\n"), "bad partial line: in a \"soft-results v1\" file"},
		{"v2 without partial", v2(lines), "no partial line"},
		{"partial repeated", v2(insert(paths, "partial truncated=true cancelled=false\npartial truncated=true cancelled=false\n")), "bad partial line: repeated"},
		{"bad partial", v2(insert(paths, "partial truncated=maybe cancelled=false\n")), "bad partial line"},
		{"partial marking an exhaustive run", v2(insert(paths, "partial truncated=false cancelled=false\n")), "bad partial line: neither truncated nor cancelled"},
		{"test after paths", insert(paths+1, "test \"Concrete\"\n"), "bad test line: after the paths line"},
		{"coverage after a path", insert(at("end"), "coverage 1.0 2.0\n"), "bad coverage line: after the paths line"},
		{"agent deleted", without("agent "), "no agent line"},
		{"elapsed deleted", without("elapsed "), "no elapsed line"},
		{"msgcount deleted", without("msgcount "), "no msgcount line"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ReadResults(strings.NewReader(strings.Join(c.lines, "")))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("got error %v, want one containing %q", err, c.want)
			}
		})
	}
	partial := v2(insert(paths, "partial truncated=true cancelled=false\n"))
	if res, err := ReadResults(strings.NewReader(strings.Join(partial, ""))); err != nil || !res.Truncated {
		t.Fatalf("v2 file with one partial line: got %v, truncated %t", err, err == nil && res.Truncated)
	}
}

// TestResultsSharedChainLinear: a path whose condition and expression are
// a 64-level shared Add(e, e) (a tree of 2^64 nodes) goes through Write
// and ReadResults in a file linear in the levels, back to the same nodes.
func TestResultsSharedChainLinear(t *testing.T) {
	e := sym.Var("sz", 16)
	for i := 0; i < 64; i++ {
		e = sym.Add(e, e)
	}
	if e.Size() != math.MaxInt32 {
		t.Fatalf("Size() = %d, want math.MaxInt32", e.Size())
	}
	cond := sym.EqConst(e, 7)
	r := &Result{Agent: "a", Test: "t", Paths: []PathResult{
		{Cond: cond, Template: "out=%v", Canonical: "out=…", Exprs: []*sym.Expr{e}},
	}}
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() > 4096 {
		t.Fatalf("results file is %d bytes, want linear in the 64 levels", buf.Len())
	}
	got, err := ReadResults(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if p := got.Paths[0]; p.Cond != cond || len(p.Exprs) != 1 || p.Exprs[0] != e {
		t.Fatal("read back other nodes than were written")
	}
}
