package sched

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/soft-testing/soft/internal/crosscheck"
	"github.com/soft-testing/soft/internal/sym"
)

// ReadReport parses a canonical campaign report (the exact bytes Write
// produces) back into a Report. The canonical format is a summary: parsed
// cells carry Paths/Truncated/coverage/ResultHash but a nil Result, and
// parsed checks carry every inconsistency (indices, canonical behaviors,
// witness models, crash flags) but not the unserialized trace templates —
// RootCauses preserves the template-derived count. Write∘ReadReport is the
// identity on canonical bytes, so a report file read back renders the
// same bytes again.
func ReadReport(r io.Reader) (*Report, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 64*1024*1024)
	line := func() (string, bool) {
		if !sc.Scan() {
			return "", false
		}
		return sc.Text(), true
	}
	need := func(what string) (string, error) {
		l, ok := line()
		if !ok {
			return "", fmt.Errorf("sched: truncated report: missing %s", what)
		}
		return l, nil
	}

	l, ok := line()
	if !ok {
		return nil, fmt.Errorf("sched: not a campaign report: empty input, expected %q header", matrixMagic)
	}
	if l != matrixMagic {
		return nil, fmt.Errorf("sched: not a campaign report: expected %q header, got %q", matrixMagic, l)
	}
	rep := &Report{}

	count := func(prefix string) (int, error) {
		l, err := need(prefix)
		if err != nil {
			return 0, err
		}
		rest, found := strings.CutPrefix(l, prefix+" ")
		if !found {
			return 0, fmt.Errorf("sched: expected %q line, got %q", prefix, l)
		}
		n, err := strconv.Atoi(rest)
		if err != nil || n < 0 {
			return 0, fmt.Errorf("sched: bad %s count %q", prefix, rest)
		}
		return n, nil
	}

	nAgents, err := count("agents")
	if err != nil {
		return nil, err
	}
	for i := 0; i < nAgents; i++ {
		l, err := need("agent")
		if err != nil {
			return nil, err
		}
		var a string
		if _, err := fmt.Sscanf(l, "agent %q", &a); err != nil {
			return nil, fmt.Errorf("sched: bad agent line %q: %v", l, err)
		}
		rep.Agents = append(rep.Agents, a)
	}
	nTests, err := count("tests")
	if err != nil {
		return nil, err
	}
	for i := 0; i < nTests; i++ {
		l, err := need("test")
		if err != nil {
			return nil, err
		}
		var t string
		if _, err := fmt.Sscanf(l, "test %q", &t); err != nil {
			return nil, fmt.Errorf("sched: bad test line %q: %v", l, err)
		}
		rep.Tests = append(rep.Tests, t)
	}

	nCells, err := count("cells")
	if err != nil {
		return nil, err
	}
	// Cells are appended as they are read, not preallocated: the count is
	// untrusted input, and a huge one must fail as a truncated report.
	for i := 0; i < nCells; i++ {
		rep.Cells = append(rep.Cells, Cell{})
		c := &rep.Cells[i]
		l, err := need("cell")
		if err != nil {
			return nil, err
		}
		if _, err := fmt.Sscanf(l, "cell agent=%q test=%q paths=%d truncated=%t result=%s",
			&c.Agent, &c.Test, &c.Paths, &c.Truncated, &c.ResultHash); err != nil {
			return nil, fmt.Errorf("sched: bad cell line %q: %v", l, err)
		}
		l, err = need("coverage")
		if err != nil {
			return nil, err
		}
		if _, err := fmt.Sscanf(l, "coverage %f %f", &c.InstrPct, &c.BranchPct); err != nil {
			return nil, fmt.Errorf("sched: bad coverage line %q: %v", l, err)
		}
	}

	nChecks, err := count("checks")
	if err != nil {
		return nil, err
	}
	for i := 0; i < nChecks; i++ {
		l, err := need("check")
		if err != nil {
			return nil, err
		}
		var (
			pc   PairCheck
			nInc int
			cr   = &crosscheck.Report{}
		)
		if _, err := fmt.Sscanf(l, "check test=%q a=%q b=%q groups=%dx%d queries=%d inconsistencies=%d rootcauses=%d partial=%t",
			&pc.Test, &pc.AgentA, &pc.AgentB, &pc.GroupsA, &pc.GroupsB,
			&cr.Queries, &nInc, &pc.RootCauses, &cr.Partial); err != nil {
			return nil, fmt.Errorf("sched: bad check line %q: %v", l, err)
		}
		cr.AgentA, cr.AgentB, cr.Test = pc.AgentA, pc.AgentB, pc.Test
		for k := 0; k < nInc; k++ {
			inc := crosscheck.Inconsistency{}
			l, err := need("inc")
			if err != nil {
				return nil, err
			}
			if _, err := fmt.Sscanf(l, "inc a=%d b=%d acrashed=%t bcrashed=%t",
				&inc.AIndex, &inc.BIndex, &inc.ACrashed, &inc.BCrashed); err != nil {
				return nil, fmt.Errorf("sched: bad inc line %q: %v", l, err)
			}
			if l, err = need("acanonical"); err != nil {
				return nil, err
			}
			if _, err := fmt.Sscanf(l, "acanonical %q", &inc.ACanonical); err != nil {
				return nil, fmt.Errorf("sched: bad acanonical line %q: %v", l, err)
			}
			if l, err = need("bcanonical"); err != nil {
				return nil, err
			}
			if _, err := fmt.Sscanf(l, "bcanonical %q", &inc.BCanonical); err != nil {
				return nil, fmt.Errorf("sched: bad bcanonical line %q: %v", l, err)
			}
			if l, err = need("witness"); err != nil {
				return nil, err
			}
			rest, found := strings.CutPrefix(l, "witness")
			if !found {
				return nil, fmt.Errorf("sched: expected witness line, got %q", l)
			}
			inc.Witness = sym.Assignment{}
			for _, pair := range strings.Fields(rest) {
				name, val, found := strings.Cut(pair, "=")
				if !found {
					return nil, fmt.Errorf("sched: bad witness pair %q", pair)
				}
				v, err := strconv.ParseUint(val, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("sched: bad witness value %q: %v", pair, err)
				}
				inc.Witness[name] = v
			}
			cr.Inconsistencies = append(cr.Inconsistencies, inc)
		}
		pc.Report = cr
		rep.Checks = append(rep.Checks, pc)
	}

	l, err = need("end")
	if err != nil {
		return nil, err
	}
	if l != "end" {
		return nil, fmt.Errorf("sched: expected end line, got %q", l)
	}
	return rep, nil
}
