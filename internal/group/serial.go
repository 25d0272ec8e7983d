package group

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"github.com/soft-testing/soft/internal/sym"
)

// The groups file format persists a grouped phase-1 result — the output of
// Paths, including the §4.2 BalancedOr disjunctions — so repeated
// crosschecks over the same results file can skip the grouping phase
// entirely (the result store caches these, keyed by the source result's
// content hash). The format follows the results-file conventions:
// line-oriented text, one sharing stream of sym s-expressions per file,
// quoted strings.

// groupsMagic versions the groups file format.
const groupsMagic = "soft-groups v1"

// Write serializes g. The same grouped result, built from the same nodes,
// always produces the same bytes (Elapsed, a wall-clock measurement, is
// not serialized).
func (r *Result) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, groupsMagic)
	fmt.Fprintf(bw, "agent %q\n", r.Agent)
	fmt.Fprintf(bw, "test %q\n", r.Test)
	fmt.Fprintf(bw, "groups %d\n", len(r.Groups))
	// One Printer for the file writes each distinct subterm once; each
	// group's lines are appended into one reused buffer.
	pr := sym.NewPrinter()
	var buf []byte
	for i := range r.Groups {
		g := &r.Groups[i]
		buf = append(buf[:0], "group "...)
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = append(buf, " paths="...)
		buf = strconv.AppendInt(buf, int64(g.PathCount), 10)
		buf = append(buf, " crashed="...)
		buf = strconv.AppendBool(buf, g.Crashed)
		buf = append(buf, "\ncanonical "...)
		buf = strconv.AppendQuote(buf, g.Canonical)
		buf = append(buf, "\ntemplate "...)
		buf = strconv.AppendQuote(buf, g.Template)
		buf = append(buf, "\ncond "...)
		buf = pr.Append(buf, g.Cond)
		buf = append(buf, "\nnexprs "...)
		buf = strconv.AppendInt(buf, int64(len(g.Exprs)), 10)
		buf = append(buf, '\n')
		for _, e := range g.Exprs {
			buf = append(buf, "expr "...)
			buf = pr.Append(buf, e)
			buf = append(buf, '\n')
		}
		if len(g.Model) > 0 {
			names := make([]string, 0, len(g.Model))
			for n := range g.Model {
				names = append(names, n)
			}
			sort.Strings(names)
			buf = append(buf, "model"...)
			for _, n := range names {
				buf = append(buf, ' ')
				buf = append(buf, n...)
				buf = append(buf, '=')
				buf = strconv.AppendUint(buf, g.Model[n], 10)
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

// Read parses a groups file written by Write. The returned result's
// Elapsed is zero: a cached grouping costs no grouping time. Like
// harness.ReadResults it rejects records that disagree with the file's
// counts: a group without exactly one cond line, an nexprs line that does
// not match the group's expr lines, or a groups line that does not match
// the number of groups.
func Read(r io.Reader) (*Result, error) {
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
		return nil, fmt.Errorf("group: not a groups file: empty input, expected %q header", groupsMagic)
	}
	if l != groupsMagic {
		return nil, fmt.Errorf("group: not a groups file: expected %q header, got %q", groupsMagic, l)
	}
	out := &Result{}
	var cur *Group
	// ngroups is the groups line's count; conds and nexprs count cur's
	// cond lines and hold its nexprs line's count (-1: no such line yet).
	ngroups, conds, nexprs := -1, 0, -1
	checkGroup := func() error {
		switch {
		case cur == nil:
		case conds != 1:
			return fmt.Errorf("group: group %d has %d cond lines, want 1", len(out.Groups)-1, conds)
		case nexprs != len(cur.Exprs):
			return fmt.Errorf("group: group %d has %d expr lines, its nexprs line says %d", len(out.Groups)-1, len(cur.Exprs), nexprs)
		}
		return nil
	}
	// One Reader for the file: the file is one sharing stream.
	var rd sym.Reader
	for {
		l, ok = line()
		if !ok {
			return nil, fmt.Errorf("group: truncated groups file")
		}
		if l == "end" {
			if err := checkGroup(); err != nil {
				return nil, err
			}
			if ngroups != len(out.Groups) {
				return nil, fmt.Errorf("group: %d groups, the groups line says %d", len(out.Groups), ngroups)
			}
			return out, nil
		}
		field, rest, _ := strings.Cut(l, " ")
		switch field {
		case "canonical", "template", "cond", "nexprs", "expr", "model":
			if cur == nil {
				return nil, fmt.Errorf("group: %s before group", field)
			}
		}
		var err error
		switch field {
		case "agent":
			out.Agent, err = strconv.Unquote(rest)
		case "test":
			out.Test, err = strconv.Unquote(rest)
		case "groups":
			if ngroups >= 0 || cur != nil {
				err = fmt.Errorf("repeated, or after a group")
				break
			}
			if ngroups, err = strconv.Atoi(rest); err == nil && ngroups < 0 {
				err = fmt.Errorf("negative count %d", ngroups)
			}
			if err == nil {
				// The count is checked at the end and only a capacity
				// hint here: a corrupt one must not size the allocation.
				out.Groups = make([]Group, 0, min(ngroups, 1<<12))
			}
		case "group":
			if err := checkGroup(); err != nil {
				return nil, err
			}
			out.Groups = append(out.Groups, Group{})
			cur, conds, nexprs = &out.Groups[len(out.Groups)-1], 0, -1
			err = parseGroupHeader(rest, len(out.Groups)-1, cur)
		case "canonical":
			cur.Canonical, err = strconv.Unquote(rest)
		case "template":
			cur.Template, err = strconv.Unquote(rest)
		case "cond":
			conds++
			cur.Cond, err = rd.Parse(rest)
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
					return nil, fmt.Errorf("group: bad model entry %q", kv)
				}
				x, err := strconv.ParseUint(v, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("group: bad model value %q", kv)
				}
				cur.Model[k] = x
			}
		default:
			return nil, fmt.Errorf("group: unknown field %q", field)
		}
		if err != nil {
			return nil, fmt.Errorf("group: bad %s line: %v", field, err)
		}
	}
}

// parseGroupHeader parses what follows "group": "N paths=N crashed=B",
// nothing more, where N must be the group's index in the file.
func parseGroupHeader(s string, index int, g *Group) error {
	idx, rest, _ := strings.Cut(s, " ")
	paths, crashed, _ := strings.Cut(rest, " ")
	paths, ok1 := strings.CutPrefix(paths, "paths=")
	crashed, ok2 := strings.CutPrefix(crashed, "crashed=")
	if !ok1 || !ok2 || idx != strconv.Itoa(index) {
		return fmt.Errorf("want \"%d paths=N crashed=B\", have %q", index, s)
	}
	var err error
	g.PathCount, err = strconv.Atoi(paths)
	if err == nil {
		g.Crashed, err = strconv.ParseBool(crashed)
	}
	return err
}
