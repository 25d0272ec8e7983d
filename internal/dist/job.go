package dist

import (
	"context"
	"sync"
	"time"

	"github.com/soft-testing/soft/internal/agents"
	"github.com/soft-testing/soft/internal/harness"
)

// JobConfig parameterizes one job — one (agent, test) exploration cell —
// submitted to a Fleet. AgentName and TestName are required and name the
// job by registry key, the form every worker process can resolve locally;
// zero limits take the harness defaults.
type JobConfig struct {
	AgentName string
	TestName  string

	// MaxPaths/MaxDepth/WantModels/Incremental mirror harness.Options and
	// are forwarded to every worker. The limits and models flag must agree
	// across shards for the merged result to be canonical; the solver-mode
	// flag is forwarded so every shard runs the configured speed mode
	// (determinism makes the bytes identical either way).
	MaxPaths    int
	MaxDepth    int
	WantModels  bool
	Incremental bool
	// NoCanonicalCut opts out of canonical MaxPaths truncation. Distributed
	// runs default to the canonical cut (the zero value): without it a
	// truncated run's path selection would depend on which shards finished
	// first, and the determinism guarantee would hold only for exhaustive
	// runs.
	NoCanonicalCut bool

	// ShardDepth bounds the initial frontier split (default
	// DefaultShardDepth).
	ShardDepth int
	// Adaptive enables progress-driven shard balancing: a leased shard that
	// has not completed within SplitAfter while workers are starving is
	// speculatively re-split into deeper sub-shards (plus a coordinator-
	// explored stub), and whichever side completes first — the original
	// worker's whole-subtree result, or the stub plus all sub-shards — is
	// used. Determinism makes both byte-identical, so splitting only
	// changes who explores what, never the result.
	Adaptive bool
	// SplitAfter is the adaptive splitter's slowness threshold (default
	// DefaultSplitAfter; only meaningful with Adaptive set).
	SplitAfter time.Duration

	// Progress, when set, receives the cumulative completed-path count
	// (coordinator-local paths plus live shard progress). Counts are a
	// monotone high-water mark and may slightly overcount during
	// speculative splits (the count is advisory; results are exact).
	Progress func(done int)

	// TraceID is the campaign's correlation id, threaded through log
	// lines and wire frames (pure observability). Zero with tracing
	// active makes the fleet mint one per job.
	TraceID uint64
}

// DefaultSplitAfter is how long a leased shard may run without completing
// before the adaptive splitter speculatively subdivides it (when workers
// are starving). Splitting is safe at any threshold — results are
// byte-identical with or without it — so the default only trades
// duplicated work against tail latency on unbalanced subtrees.
const DefaultSplitAfter = 1500 * time.Millisecond

// maxSplitPrefix bounds how deep adaptive splitting may push a shard
// prefix; beyond this the subtree is explored as-is.
const maxSplitPrefix = 24

// shardStatus tracks one shard through the lease state machine.
type shardStatus int

const (
	shardPending shardStatus = iota
	shardLeased
	shardDone      // result accepted
	shardCancelled // covered by a parent result or a completed split
)

// shard is one unexplored subtree of a job's execution tree, identified by
// its branch-decision prefix.
type shard struct {
	id       uint64
	prefix   []bool
	status   shardStatus
	grant    *grant // lease currently holding it (status shardLeased)
	result   *harness.Shard
	leasedAt time.Time
	deadline time.Time // lease expiry (zero when LeaseTimeout disabled)

	// Adaptive split state: a split shard is covered either by its own
	// result (the original worker finished first) or by stub — the
	// coordinator-explored shallow paths of the subtree — plus all
	// children. Exactly one of the two alternatives enters the merge.
	splitting bool // a split exploration is in flight
	split     bool
	stub      *harness.Shard
	children  []*shard
	parent    *shard
}

// redundant reports that an ancestor's own result already covers s's
// subtree, so a result for s is stale however s itself looks (a leased
// child cannot be cancelled, only ignored on arrival).
func (s *shard) redundant() bool {
	for p := s.parent; p != nil; p = p.parent {
		if p.result != nil {
			return true
		}
	}
	return false
}

// covered reports whether s's subtree is fully accounted for: by its own
// result, or (after a split) by the stub plus every child's subtree.
func (s *shard) covered() bool {
	if s.result != nil {
		return true
	}
	if !s.split {
		return false
	}
	for _, c := range s.children {
		if !c.covered() {
			return false
		}
	}
	return true
}

// collect appends the shard payloads that reconstruct s's subtree for the
// merge: s's own result when present, otherwise the split stub plus each
// child's collection. Called only when s.covered().
func (s *shard) collect(out *[]*harness.Shard) {
	if s.result != nil {
		*out = append(*out, s.result)
		return
	}
	*out = append(*out, s.stub)
	for _, c := range s.children {
		c.collect(out)
	}
}

// cancelSubtree marks every pending descendant of s cancelled and pulls it
// from the queue (s's own result makes their exploration redundant).
// Leased descendants keep running; their results are dropped as redundant
// on arrival.
func (j *jobRun) cancelSubtree(s *shard) {
	for _, c := range s.children {
		if c.status == shardPending {
			c.status = shardCancelled
			j.removePending(c)
		}
		j.cancelSubtree(c)
	}
}

// grant is one lease: a batch of shards from one job handed to one worker
// connection.
type grant struct {
	id     uint64
	job    *jobRun
	shards []*shard
	done   int // live progress (completed paths reported by the worker)
}

// jobRun is the coordinator-side state of one job in flight. All fields
// are guarded by the owning Fleet's mutex.
type jobRun struct {
	id    uint64
	cfg   JobConfig
	ctx   context.Context
	agent agents.Agent
	test  harness.Test
	local *harness.Result

	roots     []*shard
	shards    []*shard // every shard ever created, roots and split children
	pending   []*shard
	nextShard uint64

	// traced/traceID freeze the job's trace context at submission time
	// (whether a tracer was active, and the correlation id).
	traced  bool
	traceID uint64

	completed bool
	failed    error
	removed   bool // Run returned; no further callbacks may fire
	// cbMu fences Progress callbacks against Run returning: callbacks hold
	// it shared while invoking cfg.Progress; Run takes it exclusively after
	// removal, so no callback can still be in flight once Run returns.
	cbMu       sync.RWMutex
	localPaths int
	donePaths  int // paths in accepted results and split stubs
	liveDone   int // live progress across active grants
	progressHi int
}

// jobMsgFor renders the job announcement frame for j.
func (j *jobRun) jobMsg() jobMsg {
	return jobMsg{
		id:           j.id,
		agent:        j.cfg.AgentName,
		test:         j.cfg.TestName,
		maxPaths:     j.cfg.MaxPaths,
		maxDepth:     j.cfg.MaxDepth,
		models:       j.cfg.WantModels,
		incremental:  j.cfg.Incremental,
		canonicalCut: !j.cfg.NoCanonicalCut,
		traced:       j.traced,
		traceID:      j.traceID,
	}
}

// addShard creates a shard for prefix and registers it (pending).
func (j *jobRun) addShard(prefix []bool) *shard {
	s := &shard{id: j.nextShard, prefix: prefix}
	j.nextShard++
	j.shards = append(j.shards, s)
	j.pending = append(j.pending, s)
	return s
}

// doneLocked reports whether every root subtree is covered.
func (j *jobRun) doneLocked() bool {
	for _, s := range j.roots {
		if !s.covered() {
			return false
		}
	}
	return true
}

// removePending deletes s from the pending queue if present.
func (j *jobRun) removePending(s *shard) {
	for i, cand := range j.pending {
		if cand == s {
			j.pending = append(j.pending[:i], j.pending[i+1:]...)
			return
		}
	}
}

// exploreOptions renders the harness options every exploration of this job
// must share (prefix and split-sink vary per call).
func (j *jobRun) exploreOptions() harness.Options {
	return harness.Options{
		MaxPaths:     j.cfg.MaxPaths,
		MaxDepth:     j.cfg.MaxDepth,
		WantModels:   j.cfg.WantModels,
		Incremental:  j.cfg.Incremental,
		CanonicalCut: !j.cfg.NoCanonicalCut,
		Workers:      1,
	}
}
