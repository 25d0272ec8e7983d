package dist

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"time"

	"github.com/soft-testing/soft/internal/agents"
	"github.com/soft-testing/soft/internal/harness"
	"github.com/soft-testing/soft/internal/obs"
	"github.com/soft-testing/soft/internal/symexec"
)

// FleetConfig parameterizes a persistent worker fleet.
type FleetConfig struct {
	// LeaseTimeout re-offers a shard that has not completed in this long
	// (default DefaultLeaseTimeout; negative disables re-leasing on
	// timeout — disconnects still re-lease).
	LeaseTimeout time.Duration
	// DrainTimeout bounds the graceful-shutdown wait in Close: a handler
	// stuck mid-read on a hung worker is cut off after this long
	// (default 5s).
	DrainTimeout time.Duration
	// Logger, when set, receives one structured line per lifecycle event
	// (worker connects, job submissions, lease grants, re-leases, shard
	// completions), every line carrying its job/lease/shard/worker/trace
	// ids. Nil discards them.
	Logger *slog.Logger
}

// FleetStats counts fleet lifecycle events across every job served. All
// counts are cumulative since NewFleet.
type FleetStats struct {
	// WorkersJoined/WorkersRejected count handshakes (rejections are
	// protocol version mismatches).
	WorkersJoined   int
	WorkersRejected int
	// JobsCompleted counts successful Run calls.
	JobsCompleted int
	// Leases counts lease grants and ShardsLeased the shards granted; a
	// lease carries one shard, so the two are equal. BatchedLeases is
	// always 0: leases no longer batch shards, and the field stays only
	// for readers that still report it.
	Leases        int
	BatchedLeases int
	ShardsLeased  int
	// Requeues counts shards returned to the queue on worker disconnect,
	// Expirations those returned on lease timeout.
	Requeues    int
	Expirations int
	// StaleResults counts shard results dropped because another worker
	// already completed the shard.
	StaleResults int
}

// Fleet is a persistent distributed-exploration coordinator: workers
// connect once and stay hot while any number of jobs — (agent, test)
// exploration cells — are run through the same fleet, concurrently or in
// sequence. It is the transport layer of the campaign scheduler (soft
// matrix -addr).
//
// The zero value is not usable; create fleets with NewFleet. All methods
// are safe for concurrent use; Run may be called from many goroutines at
// once and the fleet interleaves their shards over the same workers.
type Fleet struct {
	cfg FleetConfig
	ln  net.Listener
	log *slog.Logger

	mu          sync.Mutex
	cond        *sync.Cond
	jobs        []*jobRun // active jobs, submission order
	nextJobID   uint64
	nextLeaseID uint64
	conns       map[net.Conn]bool
	closed      bool
	stats       FleetStats
	// pidByWorker assigns each worker name a stable trace pid (the
	// coordinator itself is obs.LocalPid; workers get 2, 3, … in
	// first-seen order) so merged Chrome traces keep one track per
	// worker across reconnects.
	pidByWorker map[string]int64
	nextPid     int64

	wg sync.WaitGroup
}

// NewFleet starts a coordinator that serves every Work process connecting
// to ln. The fleet owns the listener; Close closes it. Workers may connect
// before any job is submitted — they idle until work arrives.
func NewFleet(ln net.Listener, cfg FleetConfig) *Fleet {
	if cfg.LeaseTimeout == 0 {
		cfg.LeaseTimeout = DefaultLeaseTimeout
	}
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = 5 * time.Second
	}
	log := cfg.Logger
	if log == nil {
		log = obs.NopLogger()
	}
	f := &Fleet{
		cfg:         cfg,
		ln:          ln,
		log:         log.With("component", "dist"),
		conns:       make(map[net.Conn]bool),
		pidByWorker: make(map[string]int64),
		nextPid:     obs.LocalPid + 1,
	}
	f.cond = sync.NewCond(&f.mu)
	go f.accept()
	go f.watch()
	return f
}

// pidFor returns the stable trace pid for a worker name, assigning the
// next one on first sight.
func (f *Fleet) pidFor(worker string) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if pid, ok := f.pidByWorker[worker]; ok {
		return pid
	}
	pid := f.nextPid
	f.nextPid++
	f.pidByWorker[worker] = pid
	return pid
}

// Stats returns a snapshot of the fleet's lifecycle counters.
func (f *Fleet) Stats() FleetStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// Close shuts the fleet down: the listener closes, idle workers receive
// shutdown frames, and handlers stuck on hung connections are cut off
// after the drain timeout. Close is idempotent; jobs still in flight fail.
func (f *Fleet) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	f.mu.Unlock()
	f.ln.Close()
	f.cond.Broadcast()
	drained := make(chan struct{})
	go func() { f.wg.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(f.cfg.DrainTimeout):
		f.closeAll()
		<-drained
	}
}

func (f *Fleet) closeAll() {
	f.mu.Lock()
	for conn := range f.conns {
		conn.Close()
	}
	f.mu.Unlock()
}

// Run executes one job on the fleet: it splits the job's frontier, leases
// the subtrees (with any other active jobs' shards) to connected workers,
// and returns the merged result once the whole tree is covered. The result
// is byte-identical to a single-process exploration with the same
// configuration. Cancelling ctx aborts this job with ctx's error (a
// partial distributed run has no deterministic meaning, so nothing is
// returned); other jobs on the fleet are unaffected.
func (f *Fleet) Run(ctx context.Context, cfg JobConfig) (*harness.Result, error) {
	agent, err := agents.ByName(cfg.AgentName)
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	test, ok := harness.TestByName(cfg.TestName)
	if !ok {
		return nil, fmt.Errorf("dist: unknown test %q", cfg.TestName)
	}
	if cfg.MaxPaths == 0 {
		cfg.MaxPaths = harness.DefaultMaxPaths
	}
	if cfg.MaxDepth == 0 {
		cfg.MaxDepth = harness.DefaultMaxDepth
	}
	if cfg.ShardDepth == 0 {
		cfg.ShardDepth = DefaultShardDepth
	}
	start := time.Now()
	j := &jobRun{cfg: cfg, agent: agent}

	// Split the frontier: the split run explores every path reachable
	// through prefixes of length <= ShardDepth itself and diverts each
	// deeper fork — the root of an unexplored subtree — into the shard
	// queue.
	var prefixes [][]bool
	j.local = harness.ExploreShard(ctx, agent, test, harness.Options{
		MaxPaths:     cfg.MaxPaths,
		MaxDepth:     cfg.MaxDepth,
		WantModels:   cfg.WantModels,
		CanonicalCut: true,
		Workers:      1,
		ShardDepth:   cfg.ShardDepth,
		ShardSink:    func(p []bool) { prefixes = append(prefixes, p) },
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	mPathsDone.Add(int64(len(j.local.Paths)))

	// Freeze the job's trace context at submission: traced jobs mark
	// every lease so workers buffer and ship their spans back; the id is
	// a pure correlation label for logs.
	j.traced = obs.Tracing()
	if j.traced {
		j.traceID = obs.NewTraceID()
	}

	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, errors.New("dist: fleet is closed")
	}
	j.id = f.nextJobID
	f.nextJobID++
	for _, p := range prefixes {
		j.addShard(p) // registered pending
	}
	// A shallow tree can produce no shards at all — the split explored
	// everything locally. The job is then already complete; the wait loop
	// below must not expect a worker to finish it.
	if j.doneLocked() {
		j.completed = true
	}
	f.jobs = append(f.jobs, j)
	f.mu.Unlock()
	f.cond.Broadcast()
	f.log.Info("job submitted",
		"job", j.id, "agent", cfg.AgentName, "test", cfg.TestName,
		"local_paths", len(j.local.Paths), "shards", len(prefixes),
		"shard_depth", cfg.ShardDepth, obs.TraceAttr(j.traceID))

	// Wake the wait loop when this job's context dies.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			f.mu.Lock()
			if !j.completed && j.failed == nil {
				j.failed = ctx.Err()
			}
			f.mu.Unlock()
			f.cond.Broadcast()
		case <-stop:
		}
	}()

	f.mu.Lock()
	for !j.completed && j.failed == nil && !f.closed {
		f.cond.Wait()
	}
	err = j.failed
	if err == nil && !j.completed {
		err = errors.New("dist: fleet closed before the job completed")
	}
	var shards []*harness.Shard
	if err == nil {
		shards = append(shards, j.local)
		for _, s := range j.shards {
			shards = append(shards, s.result)
		}
	}
	f.removeJobLocked(j)
	f.mu.Unlock()
	// Unblock handlers whose pending work just vanished with the job.
	f.cond.Broadcast()
	if err != nil {
		return nil, err
	}

	merged, err := harness.MergeShards(
		j.local.Agent, j.local.Test, j.local.MsgCount, agent.CovMap(), shards, cfg.MaxPaths)
	if err != nil {
		return nil, err
	}
	merged.Elapsed = time.Since(start)
	f.mu.Lock()
	f.stats.JobsCompleted++
	f.mu.Unlock()
	f.log.Info("job merged",
		"job", j.id, "paths", len(merged.Paths), "shard_payloads", len(shards),
		obs.TraceAttr(j.traceID))
	return merged, nil
}

func (f *Fleet) removeJobLocked(j *jobRun) {
	for i, cand := range f.jobs {
		if cand == j {
			f.jobs = append(f.jobs[:i], f.jobs[i+1:]...)
			return
		}
	}
}

// accept admits workers until the listener closes.
func (f *Fleet) accept() {
	for {
		conn, err := f.ln.Accept()
		if err != nil {
			return
		}
		f.mu.Lock()
		if f.closed {
			f.mu.Unlock()
			conn.Close()
			continue
		}
		f.conns[conn] = true
		f.wg.Add(1)
		f.mu.Unlock()
		go f.handle(conn)
	}
}

// next blocks until a shard is leased to the caller, returning it with the
// lease's id, or until the fleet closes (ok=false).
func (f *Fleet) next() (s *shard, lease uint64, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		if f.closed {
			return nil, 0, false
		}
		for _, j := range f.jobs {
			if j.failed != nil || len(j.pending) == 0 {
				continue
			}
			s, lease = j.pending[0], f.nextLeaseID
			f.nextLeaseID++
			j.pending = j.pending[1:]
			s.status = shardLeased
			s.lease = lease
			s.leasedAt = time.Now()
			if f.cfg.LeaseTimeout > 0 {
				s.deadline = s.leasedAt.Add(f.cfg.LeaseTimeout)
			}
			f.stats.Leases++
			f.stats.ShardsLeased++
			mLeases.Inc()
			mShardsLeased.Inc()
			return s, lease, true
		}
		f.cond.Wait()
	}
}

// release returns s to the pending queue if the given lease still holds
// it — the disconnect half of crash recovery.
func (f *Fleet) release(s *shard, lease uint64) {
	if s == nil {
		return
	}
	f.mu.Lock()
	requeued := s.status == shardLeased && s.lease == lease
	if requeued {
		s.status = shardPending
		s.job.pending = append(s.job.pending, s)
		f.stats.Requeues++
		mRequeues.Inc()
	}
	f.mu.Unlock()
	if requeued {
		f.log.Info("lease re-queued (worker lost)",
			"job", s.job.id, "lease", lease, "shard", s.id,
			obs.TraceAttr(s.job.traceID))
		f.cond.Broadcast()
	}
}

// completeShard records the result of a lease on s. First completion wins
// per shard: a result for a shard already done (a re-lease duplicate) is
// dropped — determinism makes the copies identical anyway.
func (f *Fleet) completeShard(s *shard, lease uint64, result *harness.Shard) {
	j := s.job
	f.mu.Lock()
	accepted := s.status != shardDone
	if accepted {
		mLeaseRTT.Observe(int64(time.Since(s.leasedAt)))
		if s.status == shardPending {
			// The lease expired and the shard went back to the queue, but
			// the original worker finished first: take its result and pull
			// the shard out of the queue so it is not leased again.
			j.removePending(s)
		}
		s.status = shardDone
		s.result = result
		mPathsDone.Add(int64(len(result.Paths)))
	} else {
		f.stats.StaleResults++
		mStaleResults.Inc()
	}
	if !j.completed && j.failed == nil && j.doneLocked() {
		j.completed = true
	}
	f.mu.Unlock()
	if accepted {
		f.log.Info("shard done",
			"job", j.id, "lease", lease, "shard", s.id, "paths", len(result.Paths),
			obs.TraceAttr(j.traceID))
	} else {
		f.log.Info("shard result dropped as redundant",
			"job", j.id, "lease", lease, "shard", s.id, obs.TraceAttr(j.traceID))
	}
	// Wake everyone: handlers waiting for a lease re-check the queues, and
	// on the final shard the job's Run loop observes completion.
	f.cond.Broadcast()
}

// watch expires stale leases.
func (f *Fleet) watch() {
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for range tick.C {
		f.mu.Lock()
		if f.closed {
			f.mu.Unlock()
			return
		}
		if f.cfg.LeaseTimeout <= 0 {
			f.mu.Unlock()
			continue
		}
		now := time.Now()
		// Expired shards are logged per job so every line carries the
		// owning job's ids rather than one anonymous fleet-wide count.
		expiredByJob := make(map[*jobRun]int)
		for _, j := range f.jobs {
			for _, s := range j.shards {
				if s.status != shardLeased || !now.After(s.deadline) {
					continue
				}
				s.status = shardPending
				// The expired lease's result still wins if it arrives
				// first.
				j.pending = append(j.pending, s)
				expiredByJob[j]++
				f.stats.Expirations++
				mExpirations.Inc()
			}
		}
		f.mu.Unlock()
		if len(expiredByJob) > 0 {
			for j, n := range expiredByJob {
				f.log.Info("re-queued expired shards",
					"job", j.id, "shards", n, obs.TraceAttr(j.traceID))
			}
			f.cond.Broadcast()
		}
	}
}

// handle drives one worker connection through the protocol.
func (f *Fleet) handle(conn net.Conn) {
	var cur *shard // the shard leased on this connection, if any
	var curLease uint64
	var curSpan obs.Span
	welcomed := false
	defer func() {
		f.release(cur, curLease)
		// A lease span left open by a dying worker still records what ran.
		curSpan.End()
		f.mu.Lock()
		delete(f.conns, conn)
		f.mu.Unlock()
		conn.Close()
		if welcomed {
			mWorkersConnected.Dec()
		}
		f.wg.Done()
	}()

	remote := "?"
	if ra := conn.RemoteAddr(); ra != nil {
		remote = ra.String()
	}
	t, payload, err := readFrame(conn)
	if err != nil || t != msgHello {
		f.log.Warn("worker rejected: bad hello", "remote", remote, "err", err)
		return
	}
	h, err := decodeHello(payload)
	if err != nil {
		f.log.Warn("worker rejected: bad hello", "remote", remote, "err", err)
		return
	}
	if h.version != protocolVersion {
		f.mu.Lock()
		f.stats.WorkersRejected++
		f.mu.Unlock()
		mWorkersRejected.Inc()
		f.log.Warn("worker rejected: protocol version mismatch",
			"worker", h.name, "remote", remote,
			"worker_version", h.version, "want_version", uint64(protocolVersion))
		writeFrame(conn, msgReject, encodeReject(reject{want: protocolVersion}))
		return
	}
	if err := writeFrame(conn, msgWelcome, nil); err != nil {
		return
	}
	f.mu.Lock()
	f.stats.WorkersJoined++
	f.mu.Unlock()
	mWorkersJoined.Inc()
	mWorkersConnected.Inc()
	welcomed = true
	// The worker's trace pid is stable across its whole connection (and
	// across reconnects under the same name): one track per worker in the
	// merged timeline.
	pid := f.pidFor(h.name)
	f.log.Info("worker connected", "worker", h.name, "remote", remote, "trace_pid", pid)

	sentJobs := make(map[uint64]bool)
	for {
		s, id, ok := f.next()
		if !ok {
			writeFrame(conn, msgShutdown, nil)
			return
		}
		cur, curLease = s, id
		j := s.job
		if !sentJobs[j.id] {
			if err := writeFrame(conn, msgJob, encodeJob(j.jobMsg())); err != nil {
				return
			}
			sentJobs[j.id] = true
		}
		// A traced lease opens a coordinator-side span (one lane per
		// worker pid) whose id rides the lease frame; the worker's shipped
		// segments nest under it in the merged trace.
		var parentSpan uint64
		traced := j.traced && obs.Tracing()
		if traced {
			curSpan = obs.StartSpan(fmt.Sprintf("lease:%d -> %s", id, h.name)).WithTID(int(pid))
			parentSpan = curSpan.ID()
		}
		f.log.Info("lease granted",
			"job", j.id, "lease", id, "worker", h.name, "shard", s.id,
			"prefix", symexec.FormatDecisions(s.prefix), obs.TraceAttr(j.traceID))
		if err := writeFrame(conn, msgLease, encodeLease(lease{
			job: j.id, id: id, prefix: s.prefix,
			traced: traced, traceID: j.traceID, parentSpan: parentSpan,
		})); err != nil {
			return
		}
		// Read progress and trace frames until the lease's result arrives.
		// A result for a stale lease id (the worker was cut loose by a
		// re-lease that completed elsewhere) is skipped.
		for done := false; !done; {
			t, payload, err := readFrame(conn)
			if err != nil {
				return
			}
			switch t {
			case msgProgress:
				p, err := decodeProgress(payload)
				if err != nil {
					f.log.Warn("bad progress frame", "worker", h.name, "err", err)
					return
				}
				// Deltas describe worker-global solver activity, so they
				// aggregate even when the frame's lease id has gone stale.
				addRemote(p)
			case msgTrace:
				m, err := decodeTrace(payload)
				if err != nil {
					f.log.Warn("bad trace frame", "worker", h.name, "err", err)
					return
				}
				// Merge even stale-lease segments: they describe real work
				// this worker did, and merging is observation-only. With
				// tracing stopped the segment is simply dropped.
				if tr := obs.Active(); tr != nil {
					tr.MergeSegment(m.seg, pid)
				}
			case msgResult:
				r, err := decodeResult(payload, j.agent.CovMap())
				if err != nil {
					f.log.Warn("dropping lease result", "worker", h.name,
						"job", j.id, "lease", id, "err", err, obs.TraceAttr(j.traceID))
					return
				}
				if r.lease != id {
					continue // stale result from a pre-re-lease run
				}
				f.completeShard(s, id, r.shard)
				done = true
			default:
				f.log.Warn("unexpected frame type", "worker", h.name, "type", uint64(t))
				return
			}
		}
		curSpan.End()
		curSpan = obs.Span{}
		cur = nil
	}
}
