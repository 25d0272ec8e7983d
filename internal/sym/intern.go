package sym

import (
	"math"
	"sync"
	"sync/atomic"
)

// Hash-consed interning. Every constructor hands its node's fields and kids
// to mk, which hashes them and looks the structure up before allocating
// anything: a hit returns the canonical node, and only a miss allocates
// the node (with its own copy of the kids). So structurally equal
// expressions are (almost always) pointer-equal across paths and workers,
// and rebuilding an existing expression, which is what replaying a path
// mostly does, allocates nothing. That turns the engine's per-node
// memoization (bitblast's encode memo, LAnd/LOr dedup, Vars walks) into
// O(1) pointer hits instead of structural re-encodes, which is what makes
// incremental solving along the path tree pay off: sibling paths rebuild
// the same conjuncts and get back the very same *Expr.
//
// Interning is a pure optimization: Expr is immutable, so returning a
// previously built identical node never changes an answer. The table is
// capped — past the cap new nodes are returned un-interned, which costs
// pointer hits but not correctness (lookups fall back to Equal on kids).

// internShardCount spreads the table over independently locked shards so
// parallel exploration workers rarely contend.
const internShardCount = 64

// internShardCap bounds entries per shard (~1M nodes total). Exploration
// workloads hold well under this; the cap only guards pathological runs.
const internShardCap = 1 << 14

type internShard struct {
	mu sync.Mutex
	m  map[uint64][]*Expr
	n  int
}

var internShards [internShardCount]internShard

var internHits, internMisses atomic.Uint64

// mk returns the canonical node with the given fields and kids, allocating
// it only when no structurally equal node is interned yet. Candidates are
// compared field by field and kid by kid, by pointer first, so a hit costs
// no deep Equal unless a kid escaped interning. kids is only read: mk
// copies it on a miss, so callers may pass a stack-allocated literal.
func mk(op Op, w uint8, k, k2 uint64, name string, kids ...*Expr) *Expr {
	h := hashNode(op, w, k, k2, name, kids)
	s := &internShards[h%internShardCount]
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[uint64][]*Expr)
	}
	for _, c := range s.m[h] {
		if c.Op == op && c.W == w && c.K == k && c.K2 == k2 && c.Name == name && sameKids(c.Kids, kids) {
			s.mu.Unlock()
			internHits.Add(1)
			return c
		}
	}
	e := &Expr{Op: op, W: w, K: k, K2: k2, Name: name, hash: h}
	var size int64
	if op != OpConst && op != OpVar && op != OpBool {
		size = 1
	}
	if len(kids) > 0 {
		e.Kids = make([]*Expr, len(kids))
		copy(e.Kids, kids)
		for _, kid := range kids {
			size += int64(kid.size)
		}
	}
	// A heavily shared DAG counted as a tree outgrows int32; saturate so
	// Size never wraps negative.
	e.size = int32(min(size, math.MaxInt32))
	if s.n < internShardCap {
		s.m[h] = append(s.m[h], e)
		s.n++
	}
	s.mu.Unlock()
	internMisses.Add(1)
	return e
}

func sameKids(a, b []*Expr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] && !Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// InternStats reports the cumulative process-wide intern table traffic:
// hits (a construction returned an existing canonical node) and misses
// (a genuinely new node). The harness reports per-run deltas.
func InternStats() (hits, misses uint64) {
	return internHits.Load(), internMisses.Load()
}
