package harness

import (
	"bytes"
	"context"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/soft-testing/soft/internal/agents"
	"github.com/soft-testing/soft/internal/dataplane"
	"github.com/soft-testing/soft/internal/sym"
	"github.com/soft-testing/soft/internal/symexec"
)

// inputSnapshot records what an agent could write in a test's input
// sequence: every message byte's expression pointer and every probe field,
// the payload copied.
type inputSnapshot struct {
	msgs   [][]*sym.Expr
	probes []dataplane.Packet
}

func snapshotInputs(ins []Input) inputSnapshot {
	var s inputSnapshot
	for _, in := range ins {
		var msg []*sym.Expr
		if in.Msg != nil {
			for i := 0; i < in.Msg.Len(); i++ {
				msg = append(msg, in.Msg.Byte(i))
			}
		}
		s.msgs = append(s.msgs, msg)
		var probe dataplane.Packet
		if in.Probe != nil {
			probe = *in.Probe
			probe.Payload = slices.Clone(probe.Payload)
		}
		s.probes = append(s.probes, probe)
	}
	return s
}

func (s inputSnapshot) equal(o inputSnapshot) bool {
	return slices.EqualFunc(s.msgs, o.msgs, slices.Equal) && reflect.DeepEqual(s.probes, o.probes)
}

// TestAgentsNeverWriteInputs pins the contract that lets an exploration
// build a test's input sequence once and share it across every replayed
// path: no agent writes to a message buffer or a probe. For every Table 1
// test and agent, the shared inputs are unchanged by a full models-on run,
// the results are byte-identical to a run that builds the inputs on every
// path, and the shared run reads the same at 1 and 2 workers.
func TestAgentsNeverWriteInputs(t *testing.T) {
	ctx := context.Background()
	for _, test := range Tests() {
		for _, agent := range []string{"ref", "ovs", "modified"} {
			name := agent + "/" + test.Name
			a := agents.MustByName(agent)
			ins := buildInputs(test)
			before := snapshotInputs(ins)
			var shared [2][]byte
			for i, workers := range []int{1, 2} {
				res, _ := exploreInputs(ctx, a, test, Options{WantModels: true, Workers: workers}, func(*symexec.Context) []Input { return ins })
				if res.Truncated {
					t.Fatalf("%s: truncated run", name)
				}
				shared[i] = serializeCanonical(t, res)
			}
			if !snapshotInputs(ins).equal(before) {
				t.Fatalf("%s: the agent wrote to a shared input", name)
			}
			if !bytes.Equal(shared[0], shared[1]) {
				t.Fatalf("%s: shared inputs explore differently at 1 and 2 workers", name)
			}
			perPath, _ := exploreInputs(ctx, a, test, Options{WantModels: true, Workers: 2}, func(ctx *symexec.Context) []Input {
				return test.Inputs(ctx.NewSym)
			})
			if !bytes.Equal(serializeCanonical(t, perPath), shared[1]) {
				t.Fatalf("%s: shared inputs explore differently from inputs built per path", name)
			}
		}
	}
}

// TestInputWidthConflictPanicsBeforeExploring: a test whose input builder
// declares one name at two widths panics out of Explore before any path
// runs, naming the test, the variable and both widths.
func TestInputWidthConflictPanicsBeforeExploring(t *testing.T) {
	test := Test{
		Name: "Width Conflict",
		Inputs: func(ns NewSymFn) []Input {
			ns("port", 16)
			ns("port", 8)
			return nil
		},
	}
	paths := 0
	defer func() {
		msg, ok := recover().(string)
		if !ok {
			t.Fatal("Explore did not panic with a message")
		}
		for _, want := range []string{`"Width Conflict"`, `"port"`, "16", "8"} {
			if !strings.Contains(msg, want) {
				t.Errorf("panic %q does not name %s", msg, want)
			}
		}
		if paths != 0 {
			t.Errorf("%d paths ran before the panic", paths)
		}
	}()
	Explore(agents.MustByName("ref"), test, Options{Workers: 1, Progress: func(int) { paths++ }})
}
