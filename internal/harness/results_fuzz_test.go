package harness

import (
	"bytes"
	"strings"
	"testing"
	"time"

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
		PathResult{ID: 0, Cond: cond1, ConstraintOps: cond1.Size(), Trace: tr1, Branches: 1},
		PathResult{ID: 1, Cond: cond2, ConstraintOps: cond2.Size(), Trace: tr2, Crashed: crashed, Branches: 2,
			Model: sym.Assignment{"x": bound & 0xffff, "po.port": modelVal & 0xffff}},
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

		want := r.Serialized()
		if got.Agent != want.Agent || got.Test != want.Test || got.MsgCount != want.MsgCount {
			t.Fatalf("header mismatch: got (%q, %q, %d), want (%q, %q, %d)",
				got.Agent, got.Test, got.MsgCount, want.Agent, want.Test, want.MsgCount)
		}
		if got.Elapsed != want.Elapsed {
			t.Fatalf("elapsed mismatch: %v vs %v", got.Elapsed, want.Elapsed)
		}
		if got.Truncated != want.Truncated || got.Cancelled != want.Cancelled {
			t.Fatalf("partial flags mismatch: got (%t, %t), want (%t, %t)",
				got.Truncated, got.Cancelled, want.Truncated, want.Cancelled)
		}
		if len(got.Paths) != len(want.Paths) {
			t.Fatalf("path count mismatch: %d vs %d", len(got.Paths), len(want.Paths))
		}
		for i := range want.Paths {
			gp, wp := &got.Paths[i], &want.Paths[i]
			if gp.ID != wp.ID || gp.Crashed != wp.Crashed || gp.Branches != wp.Branches {
				t.Fatalf("path %d header mismatch: %+v vs %+v", i, gp, wp)
			}
			if !sym.Equal(gp.Cond, wp.Cond) {
				t.Fatalf("path %d condition mismatch: %s vs %s", i, gp.Cond, wp.Cond)
			}
			if gp.Template != wp.Template || gp.Canonical != wp.Canonical {
				t.Fatalf("path %d trace mismatch: (%q, %q) vs (%q, %q)",
					i, gp.Template, gp.Canonical, wp.Template, wp.Canonical)
			}
			if len(gp.Exprs) != len(wp.Exprs) {
				t.Fatalf("path %d expr count mismatch: %d vs %d", i, len(gp.Exprs), len(wp.Exprs))
			}
			for j := range wp.Exprs {
				if !sym.Equal(gp.Exprs[j], wp.Exprs[j]) {
					t.Fatalf("path %d expr %d mismatch", i, j)
				}
			}
			if len(gp.Model) != len(wp.Model) {
				t.Fatalf("path %d model size mismatch: %v vs %v", i, gp.Model, wp.Model)
			}
			for k, v := range wp.Model {
				if gp.Model[k] != v {
					t.Fatalf("path %d model[%q] = %d, want %d", i, k, gp.Model[k], v)
				}
			}
		}
	})
}

// FuzzReadResults throws arbitrary bytes at the parser: it must reject or
// accept without panicking, and never accept input that does not start
// with the versioned magic line.
func FuzzReadResults(f *testing.F) {
	f.Add([]byte("soft-results v1\nagent \"a\"\ntest \"t\"\npaths 0\nend\n"))
	f.Add([]byte("soft-results v2\nend\n"))
	f.Add([]byte(""))
	f.Add([]byte("agent \"a\"\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := ReadResults(bytes.NewReader(data))
		if err == nil &&
			!bytes.HasPrefix(data, []byte(resultsMagic+"\n")) &&
			!bytes.HasPrefix(data, []byte(resultsMagicV2+"\n")) {
			t.Fatalf("accepted input without %q/%q header: %+v", resultsMagic, resultsMagicV2, res)
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
	// A corrupt count is a capacity hint, not an allocation size.
	if _, err := ReadResults(strings.NewReader(head + "paths 999999999999999\nend\n")); err != nil {
		t.Fatalf("huge paths count: %v", err)
	}
}
