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
// line-oriented text, canonical s-expressions, quoted strings.

// groupsMagic versions the groups file format.
const groupsMagic = "soft-groups v1"

// Write serializes g. The rendering is canonical: the same grouped result
// always produces the same bytes (Elapsed, a wall-clock measurement, is
// not serialized).
func (r *Result) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, groupsMagic)
	fmt.Fprintf(bw, "agent %q\n", r.Agent)
	fmt.Fprintf(bw, "test %q\n", r.Test)
	fmt.Fprintf(bw, "groups %d\n", len(r.Groups))
	// One Printer for the file renders each distinct subterm once; each
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
// Elapsed is zero: a cached grouping costs no grouping time.
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
	// One Reader for the file parses each distinct subterm text once.
	rd := sym.NewReader()
	for {
		l, ok = line()
		if !ok {
			return nil, fmt.Errorf("group: truncated groups file")
		}
		if l == "end" {
			return out, nil
		}
		field, rest, _ := strings.Cut(l, " ")
		switch field {
		case "agent":
			if _, err := fmt.Sscanf(rest, "%q", &out.Agent); err != nil {
				return nil, fmt.Errorf("group: bad agent line: %v", err)
			}
		case "test":
			if _, err := fmt.Sscanf(rest, "%q", &out.Test); err != nil {
				return nil, fmt.Errorf("group: bad test line: %v", err)
			}
		case "groups":
			n, err := strconv.Atoi(rest)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("group: bad groups line %q", rest)
			}
			// The count is a capacity hint only; a corrupt one must not
			// size the allocation.
			out.Groups = make([]Group, 0, min(n, 1<<12))
		case "group":
			out.Groups = append(out.Groups, Group{})
			cur = &out.Groups[len(out.Groups)-1]
			var idx int
			if _, err := fmt.Sscanf(rest, "%d paths=%d crashed=%t", &idx, &cur.PathCount, &cur.Crashed); err != nil {
				return nil, fmt.Errorf("group: bad group line: %v", err)
			}
		case "canonical":
			if cur == nil {
				return nil, fmt.Errorf("group: canonical before group")
			}
			var err error
			if cur.Canonical, err = strconv.Unquote(rest); err != nil {
				return nil, fmt.Errorf("group: bad canonical: %v", err)
			}
		case "template":
			if cur == nil {
				return nil, fmt.Errorf("group: template before group")
			}
			var err error
			if cur.Template, err = strconv.Unquote(rest); err != nil {
				return nil, fmt.Errorf("group: bad template: %v", err)
			}
		case "cond":
			if cur == nil {
				return nil, fmt.Errorf("group: cond before group")
			}
			e, err := rd.Parse(rest)
			if err != nil {
				return nil, fmt.Errorf("group: bad cond: %v", err)
			}
			cur.Cond = e
		case "nexprs":
			// Count line; the exprs follow.
		case "expr":
			if cur == nil {
				return nil, fmt.Errorf("group: expr before group")
			}
			e, err := rd.Parse(rest)
			if err != nil {
				return nil, fmt.Errorf("group: bad expr: %v", err)
			}
			cur.Exprs = append(cur.Exprs, e)
		case "model":
			if cur == nil {
				return nil, fmt.Errorf("group: model before group")
			}
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
	}
}
