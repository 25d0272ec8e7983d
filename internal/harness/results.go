package harness

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/soft-testing/soft/internal/sym"
)

// The results file format carries phase-1 output between the two SOFT
// phases (§2.4: vendors run symbolic execution privately and ship only
// these intermediate results — path conditions, normalized traces and
// models — to the crosscheck). It carries every field of a Result except
// the run counters. The format is line-oriented text: path conditions and
// trace expressions are sym s-expressions, one sharing stream per file
// (each distinct subterm written once, "#n" after that; see sym.Printer),
// templates and canonicals are quoted strings.

// resultsMagic is the header of exhaustive results files — the original
// format, byte-identical across worker counts. resultsMagicV2 marks files
// that carry the "partial" line (truncated or cancelled explorations);
// pre-v2 readers reject them with a version mismatch instead of silently
// treating a partial path set as complete.
const (
	resultsMagic   = "soft-results v1"
	resultsMagicV2 = "soft-results v2"
)

// Write serializes r to the results file format. The run counters are not
// written, so an explored result, a fleet merge of the same tree and the
// result read back from either file all write the same bytes.
func (r *Result) Write(w io.Writer) error {
	return r.write(w, sym.NewPrinter())
}

// WriteTree writes r as Write does but with every expression as its full
// tree, the format before references: text that depends on the
// expressions' structure alone, never on how their nodes are shared.
// store.ResultHash hashes it.
func (r *Result) WriteTree(w io.Writer) error {
	return r.write(w, sym.NewTreePrinter())
}

// write renders r with pr, one Printer for the whole file.
func (r *Result) write(w io.Writer, pr *sym.Printer) error {
	bw := bufio.NewWriter(w)
	if r.Truncated || r.Cancelled {
		fmt.Fprintln(bw, resultsMagicV2)
	} else {
		fmt.Fprintln(bw, resultsMagic)
	}
	fmt.Fprintf(bw, "agent %q\n", r.Agent)
	fmt.Fprintf(bw, "test %q\n", r.Test)
	fmt.Fprintf(bw, "msgcount %d\n", r.MsgCount)
	fmt.Fprintf(bw, "elapsed %d\n", r.Elapsed.Nanoseconds())
	fmt.Fprintf(bw, "coverage %f %f\n", r.InstrPct, r.BranchPct)
	if r.Truncated || r.Cancelled {
		// Written only for partial results, so exhaustive runs keep the
		// historical byte layout (and the cross-worker-count determinism
		// guarantee, which applies to exhaustive and canonically truncated
		// runs only).
		fmt.Fprintf(bw, "partial truncated=%t cancelled=%t\n", r.Truncated, r.Cancelled)
	}
	fmt.Fprintf(bw, "paths %d\n", len(r.Paths))
	// Each path's lines are appended into one reused buffer.
	var buf []byte
	for i := range r.Paths {
		p := &r.Paths[i]
		buf = append(buf[:0], "path "...)
		buf = strconv.AppendInt(buf, int64(p.ID), 10)
		buf = append(buf, " crashed="...)
		buf = strconv.AppendBool(buf, p.Crashed)
		buf = append(buf, " branches="...)
		buf = strconv.AppendInt(buf, int64(p.Branches), 10)
		buf = append(buf, "\ncond "...)
		buf = pr.Append(buf, p.Cond)
		buf = append(buf, "\ntemplate "...)
		buf = strconv.AppendQuote(buf, p.Template)
		buf = append(buf, "\ncanonical "...)
		buf = strconv.AppendQuote(buf, p.Canonical)
		buf = append(buf, "\nnexprs "...)
		buf = strconv.AppendInt(buf, int64(len(p.Exprs)), 10)
		buf = append(buf, '\n')
		for _, e := range p.Exprs {
			buf = append(buf, "expr "...)
			buf = pr.Append(buf, e)
			buf = append(buf, '\n')
		}
		if len(p.Model) > 0 {
			names := make([]string, 0, len(p.Model))
			for n := range p.Model {
				names = append(names, n)
			}
			sort.Strings(names)
			buf = append(buf, "model"...)
			for _, n := range names {
				buf = append(buf, ' ')
				buf = append(buf, n...)
				buf = append(buf, '=')
				buf = strconv.AppendUint(buf, p.Model[n], 10)
			}
			buf = append(buf, '\n')
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	fmt.Fprintln(bw, "end")
	return bw.Flush()
}

// ReadResults parses a results file into a Result whose run counters are
// zero. Besides malformed lines it rejects a file whose records disagree
// with its counts: a path without exactly one cond, template and canonical
// line, a path with more than one model line, an nexprs line that does not
// match the path's expr lines, or a paths line that does not match the
// number of paths.
func ReadResults(r io.Reader) (*Result, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 64*1024*1024)
	line := func() (string, bool) {
		if !sc.Scan() {
			return "", false
		}
		return sc.Text(), true
	}
	l, ok := line()
	if !ok {
		return nil, fmt.Errorf("harness: not a results file: empty input, expected %q header", resultsMagic)
	}
	if l != resultsMagic && l != resultsMagicV2 {
		return nil, fmt.Errorf("harness: not a results file: expected %q (or %q) header, got %q",
			resultsMagic, resultsMagicV2, l)
	}
	out := &Result{}
	var cur *PathResult
	// npaths is the paths line's count; nexprs holds cur's nexprs line's
	// count (-1: no such line yet), and the others count cur's lines of
	// their kind.
	npaths, nexprs := -1, -1
	var conds, templates, canonicals, models int
	checkPath := func() error {
		if cur == nil {
			return nil
		}
		for _, c := range [...]struct {
			field string
			n     int
		}{{"cond", conds}, {"template", templates}, {"canonical", canonicals}} {
			if c.n != 1 {
				return fmt.Errorf("harness: path %d has %d %s lines, want 1", cur.ID, c.n, c.field)
			}
		}
		switch {
		case models > 1:
			return fmt.Errorf("harness: path %d has %d model lines, want at most 1", cur.ID, models)
		case nexprs != len(cur.Exprs):
			return fmt.Errorf("harness: path %d has %d expr lines, its nexprs line says %d", cur.ID, len(cur.Exprs), nexprs)
		}
		return nil
	}
	// One Reader for the file: the file is one sharing stream.
	var rd sym.Reader
	for {
		l, ok = line()
		if !ok {
			return nil, fmt.Errorf("harness: truncated results file")
		}
		if l == "end" {
			if err := checkPath(); err != nil {
				return nil, err
			}
			if npaths != len(out.Paths) {
				return nil, fmt.Errorf("harness: %d paths, the paths line says %d", len(out.Paths), npaths)
			}
			return out, nil
		}
		field, rest, _ := strings.Cut(l, " ")
		switch field {
		case "cond", "template", "canonical", "nexprs", "expr", "model":
			if cur == nil {
				return nil, fmt.Errorf("harness: %s before path", field)
			}
		}
		var err error
		switch field {
		case "agent":
			out.Agent, err = strconv.Unquote(rest)
		case "test":
			out.Test, err = strconv.Unquote(rest)
		case "msgcount":
			out.MsgCount, err = strconv.Atoi(rest)
		case "elapsed":
			var ns int64
			ns, err = strconv.ParseInt(rest, 10, 64)
			out.Elapsed = time.Duration(ns)
		case "coverage":
			_, err = fmt.Sscanf(rest, "%f %f", &out.InstrPct, &out.BranchPct)
		case "partial":
			_, err = fmt.Sscanf(rest, "truncated=%t cancelled=%t", &out.Truncated, &out.Cancelled)
		case "paths":
			if npaths >= 0 || cur != nil {
				err = fmt.Errorf("repeated, or after a path")
				break
			}
			if npaths, err = strconv.Atoi(rest); err == nil && npaths < 0 {
				err = fmt.Errorf("negative count %d", npaths)
			}
			if err == nil {
				// The count is checked at the end and only a capacity
				// hint here: a corrupt one must not size the allocation.
				out.Paths = make([]PathResult, 0, min(npaths, 1<<12))
			}
		case "path":
			if err := checkPath(); err != nil {
				return nil, err
			}
			out.Paths = append(out.Paths, PathResult{})
			cur, nexprs = &out.Paths[len(out.Paths)-1], -1
			conds, templates, canonicals, models = 0, 0, 0, 0
			err = parsePathHeader(rest, cur)
		case "cond":
			conds++
			cur.Cond, err = rd.Parse(rest)
		case "template":
			templates++
			cur.Template, err = strconv.Unquote(rest)
		case "canonical":
			canonicals++
			cur.Canonical, err = strconv.Unquote(rest)
		case "nexprs":
			if nexprs, err = strconv.Atoi(rest); err == nil && nexprs < 0 {
				err = fmt.Errorf("negative count %d", nexprs)
			}
		case "expr":
			var e *sym.Expr
			if e, err = rd.Parse(rest); err == nil {
				cur.Exprs = append(cur.Exprs, e)
			}
		case "model":
			models++
			cur.Model = sym.Assignment{}
			for _, kv := range strings.Fields(rest) {
				k, v, ok := strings.Cut(kv, "=")
				if !ok {
					return nil, fmt.Errorf("harness: bad model entry %q", kv)
				}
				x, err := strconv.ParseUint(v, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("harness: bad model value %q", kv)
				}
				cur.Model[k] = x
			}
		default:
			return nil, fmt.Errorf("harness: unknown field %q", field)
		}
		if err != nil {
			return nil, fmt.Errorf("harness: bad %s line: %v", field, err)
		}
	}
}

// parsePathHeader parses what follows "path": "N crashed=B branches=N",
// nothing more.
func parsePathHeader(s string, p *PathResult) error {
	id, rest, _ := strings.Cut(s, " ")
	crashed, branches, _ := strings.Cut(rest, " ")
	crashed, ok1 := strings.CutPrefix(crashed, "crashed=")
	branches, ok2 := strings.CutPrefix(branches, "branches=")
	if !ok1 || !ok2 {
		return fmt.Errorf("want \"N crashed=B branches=N\", have %q", s)
	}
	var err error
	p.ID, err = strconv.Atoi(id)
	if err == nil {
		p.Crashed, err = strconv.ParseBool(crashed)
	}
	if err == nil {
		p.Branches, err = strconv.Atoi(branches)
	}
	return err
}
