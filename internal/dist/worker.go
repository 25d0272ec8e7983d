package dist

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"os"
	"sync"
	"time"

	"github.com/soft-testing/soft/internal/agents"
	"github.com/soft-testing/soft/internal/harness"
	"github.com/soft-testing/soft/internal/obs"
	"github.com/soft-testing/soft/internal/symexec"
)

// WorkerConfig parameterizes one worker process.
type WorkerConfig struct {
	// Name identifies the worker in coordinator logs (default
	// "hostname/pid").
	Name string
	// Workers is the per-lease engine parallelism (0 = GOMAXPROCS): each
	// leased subtree is itself explored with the in-process work-stealing
	// frontier, so a distributed run parallelizes at two levels.
	Workers int
	// Logger, when set, receives one structured line per job join and
	// lease, each carrying worker/job/lease/trace ids. Nil discards them.
	Logger *slog.Logger
}

// progressInterval throttles streamed progress frames.
const progressInterval = 100 * time.Millisecond

// workerJob is one job this connection has been told about: the locally
// resolved agent and test plus the engine options every lease of the job
// shares.
type workerJob struct {
	agent agents.Agent
	test  harness.Test
	cfg   jobMsg
}

// Work connects to a coordinator at addr and explores shard leases until
// the coordinator shuts the fleet down (returns nil) or the connection
// fails. One connection serves any number of jobs — the coordinator
// announces each job's (agent, test, options) once and then leases that
// job's shards freely, so a campaign drains a whole matrix over one
// persistent fleet. Cancelling ctx closes the connection without shipping
// a partial shard — partial subtrees must never enter a merge, so the
// coordinator re-leases the shards instead.
//
// If the coordinator speaks a different protocol version the returned
// error wraps ErrVersionMismatch.
func Work(ctx context.Context, addr string, cfg WorkerConfig) error {
	if cfg.Name == "" {
		host, _ := os.Hostname()
		cfg.Name = fmt.Sprintf("%s/%d", host, os.Getpid())
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return fmt.Errorf("dist: connect %s: %w", addr, err)
	}
	defer conn.Close()
	// A cancelled context must interrupt blocked reads and in-flight
	// exploration alike: close the connection and let the run's
	// ExploreContext observe the same ctx.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-stop:
		}
	}()

	if err := writeFrame(conn, msgHello, encodeHello(hello{version: protocolVersion, name: cfg.Name})); err != nil {
		return fmt.Errorf("dist: hello: %w", err)
	}
	t, payload, err := readFrame(conn)
	if err != nil {
		return fmt.Errorf("dist: handshake: %w", err)
	}
	switch t {
	case msgWelcome:
	case msgReject:
		r, err := decodeReject(payload)
		if err != nil {
			return err
		}
		return fmt.Errorf("dist: %w: coordinator speaks protocol v%d, this binary speaks v%d",
			ErrVersionMismatch, r.want, protocolVersion)
	default:
		return protocolErr(fmt.Errorf("expected welcome, got frame type %d", t))
	}
	log := cfg.Logger
	if log == nil {
		log = obs.NopLogger()
	}
	log = log.With("component", "worker", "worker", cfg.Name)
	log.Info("connected", "addr", addr)

	// Frame writes interleave streamed progress (from engine worker
	// goroutines, via the throttler) with results; serialize them.
	var wmu sync.Mutex
	send := func(t msgType, payload []byte) error {
		wmu.Lock()
		defer wmu.Unlock()
		return writeFrame(conn, t, payload)
	}

	jobs := make(map[uint64]*workerJob)
	for {
		t, payload, err := readFrame(conn)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("dist: coordinator lost: %w", err)
		}
		switch t {
		case msgShutdown:
			log.Info("fleet shut down")
			return nil
		case msgJob:
			jm, err := decodeJob(payload)
			if err != nil {
				return err
			}
			agent, err := agents.ByName(jm.agent)
			if err != nil {
				return fmt.Errorf("dist: coordinator job needs unknown agent: %w", err)
			}
			test, ok := harness.TestByName(jm.test)
			if !ok {
				return fmt.Errorf("dist: coordinator job needs unknown test %q", jm.test)
			}
			jobs[jm.id] = &workerJob{agent: agent, test: test, cfg: jm}
			log.Info("joined job", "job", jm.id, "agent", jm.agent, "test", jm.test,
				obs.TraceAttr(jm.traceID))
		case msgLease:
			l, err := decodeLease(payload)
			if err != nil {
				return err
			}
			job, ok := jobs[l.job]
			if !ok {
				return protocolErr(fmt.Errorf("lease for unannounced job %d", l.job))
			}
			start := time.Now()
			// A traced lease turns on the worker-local tracer (kept for
			// the connection's lifetime) and ships the buffered spans back
			// as one segment per completed prefix. Draining first discards
			// spans accumulated during untraced interludes so nothing
			// nests under the wrong lease.
			var tr *obs.Tracer
			if l.traced {
				if tr = obs.Active(); tr == nil {
					tr = obs.StartTracing()
				}
				tr.Drain()
			}
			progress := throttledProgress(l.job, l.id, send)
			total := 0
			for i, prefix := range l.prefixes {
				sp := obs.StartSpan("shard:" + symexec.FormatDecisions(prefix))
				res := harness.ExploreContext(ctx, job.agent, job.test, harness.Options{
					MaxPaths:     job.cfg.maxPaths,
					MaxDepth:     job.cfg.maxDepth,
					WantModels:   job.cfg.models,
					CanonicalCut: true,
					Workers:      cfg.Workers,
					Prefix:       prefix,
					Progress:     progress,
				})
				if res.Cancelled || ctx.Err() != nil {
					// Never ship a partial subtree; the coordinator re-leases.
					return ctx.Err()
				}
				sp.End()
				total += len(res.Paths)
				// Ship the prefix's spans before its result: once the
				// coordinator has banked the last result it stops reading
				// this lease, and a worker killed mid-batch has then
				// already delivered the spans of everything it finished.
				if tr != nil {
					for _, seg := range tr.Drain() {
						seg.Process = cfg.Name
						seg.Parent = l.parentSpan
						if err := send(msgTrace, encodeTrace(traceMsg{job: l.job, lease: l.id, seg: seg})); err != nil {
							return fmt.Errorf("dist: send trace: %w", err)
						}
					}
				}
				// One result frame per prefix, shipped as it completes:
				// frames stay bounded by a single subtree however many
				// shards the lease batched, and the coordinator banks the
				// finished part if this worker dies mid-batch.
				if err := send(msgResult, encodeResult(resultMsg{
					job: l.job, lease: l.id, index: uint64(i), shard: res.Shard(),
				})); err != nil {
					return fmt.Errorf("dist: send result: %w", err)
				}
			}
			log.Info("lease done",
				"job", l.job, "lease", l.id, "shards", len(l.prefixes),
				"paths", total, "elapsed", time.Since(start).Round(time.Millisecond),
				obs.TraceAttr(l.traceID))
		default:
			return protocolErr(fmt.Errorf("unexpected frame type %d from coordinator", t))
		}
	}
}

// throttledProgress adapts the engine's per-path callback into streamed
// progress frames, sending at most one per progressInterval; send errors
// are ignored — the connection's main loop will see them.
//
// Each frame carries the worker's solver-metric deltas since the previous
// frame, sampled from the process-global SAT counters. Deltas accrued after
// the lease's last throttled frame are shipped with the next lease's first
// frame (or lost at disconnect) — acceptable for advisory observability
// data.
func throttledProgress(jobID, leaseID uint64, send func(msgType, []byte) error) func(int) {
	var mu sync.Mutex
	var last time.Time
	snap := sampleWorkerMetrics()
	return func(int) {
		mu.Lock()
		if time.Since(last) < progressInterval {
			mu.Unlock()
			return
		}
		last = time.Now()
		cur := sampleWorkerMetrics()
		d := cur.sub(snap)
		snap = cur
		mu.Unlock()
		send(msgProgress, encodeProgress(progressMsg{
			job: jobID, lease: leaseID,
			dSolves: d.solves, dSolveNanos: d.solveNanos,
			dAssumption: d.assumption, dReused: d.reused,
		}))
	}
}
