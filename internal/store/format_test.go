package store

import (
	"bytes"
	"strings"
	"testing"

	"github.com/soft-testing/soft/internal/agents"
	"github.com/soft-testing/soft/internal/agents/modified"
	"github.com/soft-testing/soft/internal/agents/ovs"
	"github.com/soft-testing/soft/internal/agents/refswitch"
	"github.com/soft-testing/soft/internal/harness"
)

// legacyResults is a results file in the tree format, written before
// results files shared subterms: every expression is its full tree and
// there is no "#" reference.
const legacyResults = `soft-results v1
agent "Reference Switch"
test "Packet Out"
msgcount 1
elapsed 3000000
coverage 50.000000 25.000000
paths 3
path 0 crashed=false branches=2
cond (land (ult (var po.port 16) (const 16 65280)) (eq (var po.buffer_id 32) (const 32 4294967295)))
template "pkt-out:port=%v"
canonical "pkt-out:port=(var po.port 16)"
nexprs 1
expr (var po.port 16)
model po.buffer_id=4294967295 po.port=1
path 1 crashed=false branches=3
cond (land (lnot (ult (var po.port 16) (const 16 65280))) (eq (var po.port 16) (const 16 65531)) (eq (var po.buffer_id 32) (const 32 4294967295)))
template "pkt-out:port=FLOOD"
canonical "pkt-out:port=FLOOD"
nexprs 0
path 2 crashed=true branches=3
cond (land (lnot (ult (var po.port 16) (const 16 65280))) (lnot (eq (var po.port 16) (const 16 65531))) (eq (var po.buffer_id 32) (const 32 4294967295)))
template "msg:ERROR/%v\ncrash"
canonical "msg:ERROR/(extract 7 0 (var po.port 16))\ncrash"
nexprs 1
expr (extract 7 0 (var po.port 16))
end
`

// legacyHash is legacyResults' content address: the SHA-256 of its text
// with the elapsed line zeroed.
const legacyHash = "3a722e139b7ce3ce79d101ed649777da661867d8f1b11bbfc03b03e8372120e2"

// TestResultHashLegacyFile: a tree-format file still reads, hashes to the
// SHA-256 of its own text, and its sharing rewrite (smaller, with
// references) hashes the same.
func TestResultHashLegacyFile(t *testing.T) {
	old, err := harness.ReadResults(strings.NewReader(legacyResults))
	if err != nil {
		t.Fatal(err)
	}
	if h, err := ResultHash(old); err != nil || h != legacyHash {
		t.Fatalf("legacy file hashes to %s (%v), want %s", h, err, legacyHash)
	}
	var rewrite bytes.Buffer
	if err := old.Write(&rewrite); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(rewrite.Bytes(), []byte("#")) || rewrite.Len() >= len(legacyResults) {
		t.Fatalf("rewrite shares nothing:\n%s", rewrite.Bytes())
	}
	got, err := harness.ReadResults(&rewrite)
	if err != nil {
		t.Fatal(err)
	}
	if h, err := ResultHash(got); err != nil || h != legacyHash {
		t.Fatalf("rewrite hashes to %s (%v), want %s", h, err, legacyHash)
	}
}

// TestSharedRoundTrip: over real explorations, Write → ReadResults gives
// back the very nodes that were written (interning makes equal nodes one
// pointer), and ResultHash is the same before and after.
func TestSharedRoundTrip(t *testing.T) {
	all := []agents.Agent{refswitch.New(), ovs.New(), modified.New()}
	for _, name := range []string{"Packet Out", "Set Config", "Stats Request", "Short Symb"} {
		tt, ok := harness.TestByName(name)
		if !ok {
			t.Fatalf("missing test %s", name)
		}
		for _, agent := range all {
			res := harness.Explore(agent, tt, harness.Options{WantModels: true, MaxPaths: 500})
			var buf bytes.Buffer
			if err := res.Write(&buf); err != nil {
				t.Fatal(err)
			}
			got, err := harness.ReadResults(&buf)
			if err != nil {
				t.Fatalf("%s/%s: %v", res.Agent, name, err)
			}
			if len(got.Paths) != len(res.Paths) {
				t.Fatalf("%s/%s: %d paths read back, want %d", res.Agent, name, len(got.Paths), len(res.Paths))
			}
			for i := range res.Paths {
				g, w := &got.Paths[i], &res.Paths[i]
				if g.Cond != w.Cond || len(g.Exprs) != len(w.Exprs) {
					t.Fatalf("%s/%s path %d: condition or expressions are not the written nodes", res.Agent, name, i)
				}
				for j := range w.Exprs {
					if g.Exprs[j] != w.Exprs[j] {
						t.Fatalf("%s/%s path %d expr %d is not the written node", res.Agent, name, i, j)
					}
				}
			}
			before, err1 := ResultHash(res)
			after, err2 := ResultHash(got)
			if err1 != nil || err2 != nil || before != after {
				t.Fatalf("%s/%s: ResultHash %s before, %s after (%v, %v)", res.Agent, name, before, after, err1, err2)
			}
		}
	}
}
