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
// these intermediate results — path conditions and normalized traces — to
// the crosscheck). The format is line-oriented text: path conditions and
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

// Write serializes r to the results file format.
func (r *Result) Write(w io.Writer) error {
	return r.Serialized().Write(w)
}

// Write serializes r to the results file format. It is the same writer
// Result.Write uses (Result.Write goes through the Serialized view), so a
// result merged from distributed shards — which exists only in serialized
// form — produces byte-identical files to an in-process exploration.
func (r *SerializedResult) Write(w io.Writer) error {
	return r.write(w, sym.NewPrinter())
}

// WriteTree writes r as Write does but with every expression as its full
// tree, the format before references: text that depends on the
// expressions' structure alone, never on how their nodes are shared.
// store.ResultHash hashes it.
func (r *SerializedResult) WriteTree(w io.Writer) error {
	return r.write(w, sym.NewTreePrinter())
}

// write renders r with pr, one Printer for the whole file.
func (r *SerializedResult) write(w io.Writer, pr *sym.Printer) error {
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

// SerializedPath is the crosscheck-phase view of one path: everything the
// second phase needs, with no access to agent source or engine state.
type SerializedPath struct {
	ID       int
	Crashed  bool
	Branches int
	Cond     *sym.Expr
	Template string
	// Canonical is the full normalized trace rendering (the group key).
	Canonical string
	Exprs     []*sym.Expr
	Model     sym.Assignment
}

// SerializedResult mirrors Result after a round trip through the file
// format.
type SerializedResult struct {
	Agent     string
	Test      string
	MsgCount  int
	Elapsed   time.Duration
	InstrPct  float64
	BranchPct float64
	// Truncated/Cancelled mirror the source Result's partial-run flags, so
	// the crosscheck phase can tell a partial path set from an exhaustive
	// one (inconsistencies on unexplored paths are invisible).
	Truncated bool
	Cancelled bool
	Paths     []SerializedPath
}

// Serialized converts an in-memory Result into the crosscheck-phase view
// without a file round trip.
func (r *Result) Serialized() *SerializedResult {
	out := &SerializedResult{
		Agent: r.Agent, Test: r.Test, MsgCount: r.MsgCount,
		Elapsed: r.Elapsed, InstrPct: r.InstrPct, BranchPct: r.BranchPct,
		Truncated: r.Truncated, Cancelled: r.Cancelled,
	}
	for i := range r.Paths {
		p := &r.Paths[i]
		out.Paths = append(out.Paths, SerializedPath{
			ID:        p.ID,
			Crashed:   p.Crashed,
			Branches:  p.Branches,
			Cond:      p.Cond,
			Template:  p.Trace.Template(),
			Canonical: p.Trace.Canonical(),
			Exprs:     p.Trace.Exprs(),
			Model:     p.Model,
		})
	}
	return out
}

// ReadResults parses a results file. Besides malformed lines it rejects a
// file whose records disagree with its counts: a path without exactly one
// cond line, an nexprs line that does not match the path's expr lines, or
// a paths line that does not match the number of paths.
func ReadResults(r io.Reader) (*SerializedResult, error) {
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
	out := &SerializedResult{}
	var cur *SerializedPath
	// npaths is the paths line's count; conds and nexprs count cur's cond
	// lines and hold its nexprs line's count (-1: no such line yet).
	npaths, conds, nexprs := -1, 0, -1
	checkPath := func() error {
		switch {
		case cur == nil:
		case conds != 1:
			return fmt.Errorf("harness: path %d has %d cond lines, want 1", cur.ID, conds)
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
				out.Paths = make([]SerializedPath, 0, min(npaths, 1<<12))
			}
		case "path":
			if err := checkPath(); err != nil {
				return nil, err
			}
			out.Paths = append(out.Paths, SerializedPath{})
			cur, conds, nexprs = &out.Paths[len(out.Paths)-1], 0, -1
			err = parsePathHeader(rest, cur)
		case "cond":
			conds++
			cur.Cond, err = rd.Parse(rest)
		case "template":
			cur.Template, err = strconv.Unquote(rest)
		case "canonical":
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
func parsePathHeader(s string, p *SerializedPath) error {
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

// TraceOf rebuilds a trace-comparison view for a serialized path. (The
// events themselves are not reconstructed — grouping and crosschecking
// only need the canonical string, template, and expressions.)
func (p *SerializedPath) TraceOf() (template, canonical string, exprs []*sym.Expr) {
	return p.Template, p.Canonical, p.Exprs
}
