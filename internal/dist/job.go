package dist

import (
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

	// MaxPaths/MaxDepth/WantModels mirror harness.Options and are
	// forwarded to every worker; they must agree across shards for the
	// merged result to be canonical. Fleet jobs always truncate with the
	// canonical MaxPaths cut: otherwise a truncated run's path selection
	// would depend on which shards finished first.
	MaxPaths   int
	MaxDepth   int
	WantModels bool

	// ShardDepth bounds the frontier split (default
	// DefaultShardDepth).
	ShardDepth int
}

// shardStatus tracks one shard through the lease state machine.
type shardStatus int

const (
	shardPending shardStatus = iota
	shardLeased
	shardDone // result accepted
)

// shard is one unexplored subtree of a job's execution tree, identified by
// its branch-decision prefix. A lease hands exactly one shard to one worker
// connection.
type shard struct {
	id       uint64
	job      *jobRun
	prefix   []bool
	status   shardStatus
	lease    uint64 // id of the latest lease granted on it
	result   *harness.Shard
	leasedAt time.Time
	deadline time.Time // lease expiry (zero when LeaseTimeout disabled)
}

// jobRun is the coordinator-side state of one job in flight. All fields
// are guarded by the owning Fleet's mutex.
type jobRun struct {
	id    uint64
	cfg   JobConfig
	agent agents.Agent
	local *harness.Shard

	shards  []*shard // one per frontier prefix, in split order
	pending []*shard

	// traced/traceID freeze the job's trace context at submission time
	// (whether a tracer was active, and the correlation id).
	traced  bool
	traceID uint64

	completed bool
	failed    error
}

// jobMsgFor renders the job announcement frame for j.
func (j *jobRun) jobMsg() jobMsg {
	return jobMsg{
		id:       j.id,
		agent:    j.cfg.AgentName,
		test:     j.cfg.TestName,
		maxPaths: j.cfg.MaxPaths,
		maxDepth: j.cfg.MaxDepth,
		models:   j.cfg.WantModels,
		traced:   j.traced,
		traceID:  j.traceID,
	}
}

// addShard creates a shard for prefix and registers it (pending).
func (j *jobRun) addShard(prefix []bool) *shard {
	s := &shard{id: uint64(len(j.shards)), job: j, prefix: prefix}
	j.shards = append(j.shards, s)
	j.pending = append(j.pending, s)
	return s
}

// doneLocked reports whether every shard has a result.
func (j *jobRun) doneLocked() bool {
	for _, s := range j.shards {
		if s.result == nil {
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
