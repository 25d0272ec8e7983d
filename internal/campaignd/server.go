package campaignd

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"github.com/soft-testing/soft/internal/agents"
	"github.com/soft-testing/soft/internal/dist"
	"github.com/soft-testing/soft/internal/harness"
	"github.com/soft-testing/soft/internal/obs"
	"github.com/soft-testing/soft/internal/sched"
	"github.com/soft-testing/soft/internal/store"
)

// Config parameterizes a campaign service coordinator.
type Config struct {
	// Store is required: it caches cell results (the durable unit of
	// campaign progress) and hosts the job journal under
	// <dir>/campaignd/.
	Store *store.Store
	// Fleet, when set, runs every non-cached cell of every job on this
	// persistent worker fleet; nil explores in-process.
	Fleet *dist.Fleet
	// CodeVersion is the default cache-key code version for jobs that do
	// not pin their own (default store.DefaultCodeVersion()).
	CodeVersion string
	// MaxActive bounds concurrently running jobs (default 2). Queued jobs
	// beyond it wait first in, first out.
	MaxActive int
	// Workers / ShardDepth configure each job's sched.Options (see there).
	Workers    int
	ShardDepth int
	// Retain, when positive, bounds the journal: only the newest Retain
	// terminal job records (done, failed, cancelled) are kept; older ones
	// are pruned — journal record and report included — at startup and as
	// jobs finish. Zero keeps everything. Live jobs are never pruned.
	Retain int
	// Logger, when set, receives one structured line per service
	// lifecycle event, each carrying the job id (and the trace id
	// for traced jobs). Each job's sched layer logs its cell and check
	// lines through it too. Nil discards them.
	Logger *slog.Logger
}

// Event is one progress report on a job's event stream (and the SSE wire
// schema). Progress counters are advisory; state transitions are exact.
type Event struct {
	Job   string   `json:"job"`
	State JobState `json:"state"`
	Done  int      `json:"done"`
	Total int      `json:"total"`
	Error string   `json:"error,omitempty"`
}

// Status is the daemon-level view the status endpoint serves.
type Status struct {
	CodeVersion string           `json:"code_version"`
	Queued      int              `json:"queued"`
	Running     int              `json:"running"`
	Done        int              `json:"done"`
	Failed      int              `json:"failed"`
	Cancelled   int              `json:"cancelled"`
	FleetStats  *dist.FleetStats `json:"fleet_stats,omitempty"`
}

// Server is the durable campaign coordinator: it accepts matrix jobs over
// an HTTP/JSON API, journals them write-ahead in the store directory, and
// executes them first in, first out — over one shared worker fleet when
// configured. Because every completed cell is a content-addressed store
// entry and every exploration is byte-identical across layouts, a
// coordinator killed at any instant (SIGKILL included) and restarted on the
// same store resumes its in-flight jobs and produces canonical reports
// byte-identical to uninterrupted runs.
type Server struct {
	cfg Config
	jr  *journal
	log *slog.Logger

	mu       sync.Mutex
	cond     *sync.Cond
	jobs     map[string]*Job
	order    []string // job ids in submission order
	queue    []*Job   // queued jobs, FIFO
	subs     map[string]map[chan Event]bool
	cancels  map[string]context.CancelFunc // running job id → abort its execution
	nextSeq  uint64
	dispatch uint64 // global dispatch counter (jobs' StartSeq)
	running  int
	closed   bool

	wg sync.WaitGroup

	// The shared job tracer: traced jobs refcount one process-global
	// tracer (workers' segments arrive through the fleet merging into
	// it), and each traced job drains it into its own journaled bundle at
	// job end. When traced jobs overlap, spans buffered while both run
	// attribute to whichever job drains first — an accepted imprecision
	// for an advisory artifact.
	traceMu  sync.Mutex
	traceRef int
	traceOwn bool // we installed the tracer (vs adopting a caller's)
}

// New opens (or resumes) a campaign service on cfg.Store: the journal is
// replayed, finished jobs keep their reports, queued jobs keep their place,
// and jobs that were running when the previous coordinator died are
// requeued — their completed cells are already in the store, so
// re-execution is a warm resume, and determinism makes the resumed report
// byte-identical to an uninterrupted one. Call Start to begin scheduling.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("campaignd: a result store is required (it hosts the job journal)")
	}
	if cfg.CodeVersion == "" {
		cfg.CodeVersion = store.DefaultCodeVersion()
	}
	if cfg.MaxActive <= 0 {
		cfg.MaxActive = 2
	}
	jr, err := openJournal(cfg.Store.Dir() + "/campaignd")
	if err != nil {
		return nil, err
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NopLogger()
	}
	s := &Server{
		cfg:     cfg,
		log:     cfg.Logger.With("component", "campaignd"),
		jr:      jr,
		jobs:    map[string]*Job{},
		subs:    map[string]map[chan Event]bool{},
		cancels: map[string]context.CancelFunc{},
		nextSeq: 1,
	}
	s.cond = sync.NewCond(&s.mu)

	replayed, err := jr.jobs()
	if err != nil {
		return nil, err
	}
	resumed := 0
	for _, j := range replayed {
		if j.Seq >= s.nextSeq {
			s.nextSeq = j.Seq + 1
		}
		if j.State == StateRunning {
			// The previous coordinator died mid-job. The write-ahead
			// journal plus the content-addressed store make requeueing
			// safe: completed cells are cache hits, the rest re-explore
			// deterministically.
			j.State = StateQueued
			j.Restarts++
			mJobsRestarted.Inc()
			if err := jr.putJob(j); err != nil {
				return nil, err
			}
			resumed++
		}
		s.registerLocked(j)
		if j.State == StateQueued {
			s.queue = append(s.queue, j)
		}
	}
	if len(replayed) > 0 {
		s.log.Info("journal replayed", "jobs", len(replayed), "resumed", resumed)
	}
	s.syncGaugesLocked()
	s.prune()
	return s, nil
}

// traceIDOf parses a job's journaled trace id for log fields and the
// sched plumb-through; zero when untraced or malformed.
func traceIDOf(j *Job) uint64 {
	if j.Spec.TraceID == "" {
		return 0
	}
	id, err := obs.ParseTraceID(j.Spec.TraceID)
	if err != nil {
		return 0
	}
	return id
}

// acquireTracer refcounts the shared job tracer: the first traced job
// installs one (or adopts a tracer the embedding process already
// installed, e.g. `soft campaignd -trace`) and names the local track;
// later traced jobs share it.
func (s *Server) acquireTracer() *obs.Tracer {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	if s.traceRef == 0 {
		tr := obs.Active()
		if tr == nil {
			tr = obs.StartTracing()
			s.traceOwn = true
		} else {
			s.traceOwn = false
		}
		tr.SetProcessName(obs.LocalPid, "campaignd")
	}
	s.traceRef++
	return obs.Active()
}

// releaseTracer drops one traced job's reference; the last release stops
// the tracer only if acquireTracer installed it.
func (s *Server) releaseTracer() {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	s.traceRef--
	if s.traceRef == 0 && s.traceOwn {
		if tr := obs.Active(); tr != nil {
			tr.Stop()
		}
	}
}

// registerLocked adds a job to the id index (any state).
func (s *Server) registerLocked(j *Job) {
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
}

// dequeueLocked removes a queued job from the FIFO.
func (s *Server) dequeueLocked(j *Job) {
	for i, cand := range s.queue {
		if cand == j {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			return
		}
	}
}

// Submit validates, journals, and enqueues one job. The record is durable
// before Submit returns — a coordinator killed right after the caller's
// ack still knows the job. Empty Agents/Tests expand to every registered
// agent / the whole suite at submission time, so the journal pins the
// concrete matrix.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	// 0 selects the default cap, but the engine reads any cap <= 0 as
	// unbounded, so a negative one would silently lift the bound.
	if spec.MaxPaths < 0 {
		return nil, fmt.Errorf("campaignd: max_paths must not be negative (got %d)", spec.MaxPaths)
	}
	if spec.MaxDepth < 0 {
		return nil, fmt.Errorf("campaignd: max_depth must not be negative (got %d)", spec.MaxDepth)
	}
	if len(spec.Agents) == 0 {
		spec.Agents = agents.Names()
	}
	if len(spec.Tests) == 0 {
		for _, t := range harness.Tests() {
			spec.Tests = append(spec.Tests, t.Name)
		}
	}
	seen := map[string]bool{}
	for _, a := range spec.Agents {
		if _, err := agents.ByName(a); err != nil {
			return nil, fmt.Errorf("campaignd: %w", err)
		}
		if seen["a:"+a] {
			return nil, fmt.Errorf("campaignd: duplicate agent %q", a)
		}
		seen["a:"+a] = true
	}
	for _, t := range spec.Tests {
		if _, ok := harness.TestByName(t); !ok {
			return nil, fmt.Errorf("campaignd: unknown test %q", t)
		}
		if seen["t:"+t] {
			return nil, fmt.Errorf("campaignd: duplicate test %q", t)
		}
		seen["t:"+t] = true
	}
	// Normalize the trace request: a caller-supplied id implies tracing,
	// and a traced job without an id gets one minted here so the journal
	// pins it (a restarted coordinator resumes the same trace identity).
	if spec.TraceID != "" {
		id, err := obs.ParseTraceID(spec.TraceID)
		if err != nil {
			return nil, fmt.Errorf("campaignd: %w", err)
		}
		spec.TraceID = obs.FormatTraceID(id)
		spec.Trace = true
	}
	if spec.Trace && spec.TraceID == "" {
		spec.TraceID = obs.FormatTraceID(obs.NewTraceID())
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("campaignd: the service is shutting down")
	}
	seq := s.nextSeq
	s.nextSeq++
	j := &Job{
		ID:            jobID(seq),
		Seq:           seq,
		Spec:          spec,
		State:         StateQueued,
		SubmittedUnix: time.Now().Unix(),
	}
	s.registerLocked(j)
	s.queue = append(s.queue, j)
	rec := j.clone()
	s.mu.Unlock()

	// Write-ahead: the journal entry lands before the submission is acked
	// (and before the scheduler can possibly report it done).
	if err := s.jr.putJob(rec); err != nil {
		s.mu.Lock()
		delete(s.jobs, j.ID)
		s.dequeueLocked(j)
		s.mu.Unlock()
		return nil, err
	}
	mJobsSubmitted.Inc()
	s.mu.Lock()
	s.syncGaugesLocked()
	s.mu.Unlock()
	s.log.Info("job submitted",
		"job", j.ID,
		"agents", len(spec.Agents), "tests", len(spec.Tests),
		"crosscheck", spec.CrossCheck, obs.TraceAttr(traceIDOf(j)))
	s.cond.Broadcast()
	return rec, nil
}

// Job returns a snapshot of one job; ok=false when unknown.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	return j.clone(), true
}

// Jobs returns snapshots of every job in submission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*Job
	for _, id := range s.order {
		out = append(out, s.jobs[id].clone())
	}
	return out
}

// Report returns a done job's canonical report bytes; ok=false when the
// job is unknown or not done yet.
func (s *Server) Report(id string) ([]byte, bool, error) {
	s.mu.Lock()
	j, known := s.jobs[id]
	done := known && j.State == StateDone
	s.mu.Unlock()
	if !done {
		return nil, false, nil
	}
	data, ok, err := s.jr.report(id)
	if err != nil {
		return nil, false, err
	}
	if !ok {
		// putReport precedes the done mark, so this is a corrupted store.
		return nil, false, fmt.Errorf("campaignd: job %s is done but its report is missing from the journal", id)
	}
	return data, true, nil
}

// Trace returns a traced job's journaled segment-bundle bytes (JSON, the
// obs.Bundle schema); ok=false when the job is unknown, untraced, or has
// not drained its trace yet (it drains once execution settles).
func (s *Server) Trace(id string) ([]byte, bool, error) {
	s.mu.Lock()
	_, known := s.jobs[id]
	s.mu.Unlock()
	if !known {
		return nil, false, nil
	}
	return s.jr.trace(id)
}

// Status snapshots daemon-level counters.
func (s *Server) Status() Status {
	s.mu.Lock()
	st := Status{CodeVersion: s.cfg.CodeVersion}
	for _, j := range s.jobs {
		switch j.State {
		case StateQueued:
			st.Queued++
		case StateRunning:
			st.Running++
		case StateDone:
			st.Done++
		case StateFailed:
			st.Failed++
		case StateCancelled:
			st.Cancelled++
		}
	}
	s.mu.Unlock()
	if s.cfg.Fleet != nil {
		fs := s.cfg.Fleet.Stats()
		st.FleetStats = &fs
	}
	return st
}

// Start launches the scheduler. Cancelling ctx aborts running jobs — they
// are requeued in the journal, not failed, so the next coordinator (or a
// later Start on a fresh Server over the same store) resumes them.
func (s *Server) Start(ctx context.Context) {
	// Wake the scheduler when the context dies so it can observe it.
	stop := context.AfterFunc(ctx, func() { s.cond.Broadcast() })
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer stop()
		s.schedule(ctx)
	}()
}

func (s *Server) schedule(ctx context.Context) {
	for {
		s.mu.Lock()
		for !s.closed && ctx.Err() == nil && (s.running >= s.cfg.MaxActive || len(s.queue) == 0) {
			s.cond.Wait()
		}
		if s.closed || ctx.Err() != nil {
			s.mu.Unlock()
			return
		}
		j := s.queue[0]
		s.queue = s.queue[1:]
		s.dispatch++
		j.StartSeq = s.dispatch
		j.State = StateRunning
		j.StartedUnix = time.Now().Unix()
		j.Done, j.Total = 0, 0
		s.running++
		// Each job runs under its own child context so Cancel can abort it
		// without touching the scheduler or its siblings.
		jctx, jcancel := context.WithCancel(ctx)
		s.cancels[j.ID] = jcancel
		rec := j.clone()
		s.publishLocked(j)
		s.syncGaugesLocked()
		mQueueWait.Observe((j.StartedUnix - j.SubmittedUnix) * int64(time.Second))
		s.mu.Unlock()

		// Journal the ownership transition before execution starts; if the
		// write fails the job still runs — replay would merely re-run it,
		// and determinism makes that invisible.
		if err := s.jr.putJob(rec); err != nil {
			s.log.Error("journal write failed", "job", j.ID, "error", err)
		}
		s.log.Info("job started", "job", j.ID, obs.TraceAttr(traceIDOf(j)))
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer jcancel()
			s.execute(jctx, j)
			s.mu.Lock()
			delete(s.cancels, j.ID)
			s.mu.Unlock()
		}()
	}
}

// execute runs one job to a terminal state (or back to queued on
// shutdown).
func (s *Server) execute(ctx context.Context, j *Job) {
	spec := j.Spec
	cv := spec.CodeVersion
	if cv == "" {
		cv = s.cfg.CodeVersion
	}
	traceID := traceIDOf(j)
	var tr *obs.Tracer
	if spec.Trace {
		tr = s.acquireTracer()
		defer s.releaseTracer()
	}
	sp := obs.StartSpan("job:" + j.ID)
	rep, err := sched.RunMatrix(ctx, spec.Agents, spec.Tests, sched.Options{
		TraceID:     traceID,
		MaxPaths:    spec.MaxPaths,
		MaxDepth:    spec.MaxDepth,
		Models:      spec.Models,
		Workers:     s.cfg.Workers,
		Fleet:       s.cfg.Fleet,
		ShardDepth:  s.cfg.ShardDepth,
		Store:       s.cfg.Store,
		CodeVersion: cv,
		CrossCheck:  spec.CrossCheck,
		Budget:      0, // budgets break report determinism; never set one here
		Progress:    func(done, total int) { s.progress(j, done, total) },
		Logger:      s.cfg.Logger.With("job", j.ID),
	})
	sp.End()
	if tr != nil {
		// Drain after the job span ends so the bundle contains it, and
		// before the terminal journal write so a done job's trace is
		// immediately downloadable. The drain always runs — a failed or
		// shutdown-aborted job keeps the segments its workers shipped.
		s.journalTrace(j, tr, traceID)
	}

	// Every transition below yields to an already-journaled cancellation:
	// once Cancel marked the job, no completion, failure, or requeue may
	// overwrite the terminal cancelled state.
	cancelled := false
	yield := func(j *Job) bool {
		if j.State == StateCancelled {
			cancelled = true
			return true
		}
		return false
	}

	if err == nil {
		var buf bytes.Buffer
		if werr := rep.Write(&buf); werr == nil {
			// Write-ahead: the report is durable before the done mark.
			err = s.jr.putReport(j.ID, buf.Bytes())
		} else {
			err = werr
		}
		if err == nil {
			s.finish(j, func(j *Job) {
				if yield(j) {
					return
				}
				j.State = StateDone
				j.Done = j.Total
				j.Inconsistencies = rep.Inconsistencies()
			})
			if cancelled {
				s.log.Info("job cancelled (completed result discarded)",
					"job", j.ID, obs.TraceAttr(traceID))
				return
			}
			s.log.Info("job done",
				"job", j.ID, "cells", len(rep.Cells), "checks", len(rep.Checks),
				"inconsistencies", rep.Inconsistencies(),
				"cache_hits", rep.CacheHits, "cache_misses", rep.CacheMisses,
				obs.TraceAttr(traceID))
			return
		}
	}

	if ctx.Err() != nil {
		// The job's context died: either the whole coordinator is shutting
		// down (requeue so the next one resumes warm) or this job was
		// cancelled (keep the journaled terminal state).
		s.finish(j, func(j *Job) {
			if yield(j) {
				return
			}
			j.State = StateQueued
			j.Done, j.Total = 0, 0
		})
		if cancelled {
			s.log.Info("job cancelled (execution aborted)",
				"job", j.ID, obs.TraceAttr(traceID))
		} else {
			s.log.Info("job requeued (shutdown)",
				"job", j.ID, obs.TraceAttr(traceID))
		}
		return
	}
	msg := err.Error()
	s.finish(j, func(j *Job) {
		if yield(j) {
			return
		}
		j.State = StateFailed
		j.Error = msg
	})
	if cancelled {
		s.log.Info("job cancelled (failure superseded)",
			"job", j.ID, obs.TraceAttr(traceID))
		return
	}
	s.log.Error("job failed", "job", j.ID, "error", msg, obs.TraceAttr(traceID))
}

// journalTrace drains the shared tracer into this job's bundle and
// journals it. Advisory: failures are logged, never fail the job.
func (s *Server) journalTrace(j *Job, tr *obs.Tracer, traceID uint64) {
	b := &obs.Bundle{Segments: tr.Drain()}
	data, err := obs.EncodeBundle(b)
	if err == nil {
		err = s.jr.putTrace(j.ID, data)
	}
	if err != nil {
		s.log.Error("trace journal write failed", "job", j.ID, "error", err,
			obs.TraceAttr(traceID))
		return
	}
	events := 0
	for _, seg := range b.Segments {
		events += len(seg.Events)
	}
	s.log.Info("trace journaled", "job", j.ID,
		"segments", len(b.Segments), "events", events, obs.TraceAttr(traceID))
}

// finish applies a terminal (or requeue) transition under the lock,
// journals it, and tears down the job's event stream.
func (s *Server) finish(j *Job, apply func(*Job)) {
	s.mu.Lock()
	apply(j)
	j.FinishedUnix = time.Now().Unix()
	if j.State == StateQueued {
		j.FinishedUnix = 0
		// A requeued (shutdown-interrupted) job goes to the head of the
		// FIFO so a resume finishes it before newer work.
		s.queue = append([]*Job{j}, s.queue...)
	}
	s.running--
	rec := j.clone()
	s.publishLocked(j)
	s.syncGaugesLocked()
	if j.State.terminal() {
		for ch := range s.subs[j.ID] {
			close(ch)
		}
		delete(s.subs, j.ID)
	}
	s.mu.Unlock()
	// Cancellations are counted in Cancel (the transition's true site —
	// finish only observes the already-journaled state).
	switch rec.State {
	case StateDone:
		mJobsDone.Inc()
		mRunDuration.Observe((rec.FinishedUnix - rec.StartedUnix) * int64(time.Second))
	case StateFailed:
		mJobsFailed.Inc()
		mRunDuration.Observe((rec.FinishedUnix - rec.StartedUnix) * int64(time.Second))
	}
	if err := s.jr.putJob(rec); err != nil {
		s.log.Error("journal write failed", "job", rec.ID, "error", err)
	}
	if rec.State.terminal() {
		s.prune()
	}
	s.cond.Broadcast()
}

// ErrUnknownJob and ErrJobTerminal classify Cancel failures for the API
// layer (404 and 409 respectively).
var (
	ErrUnknownJob  = errors.New("campaignd: unknown job")
	ErrJobTerminal = errors.New("campaignd: job already terminal")
)

// Cancel moves a job to the terminal cancelled state and returns its
// record. A queued job is dequeued; a running job has its execution
// context cancelled — completed cells stay in the store, so resubmitting
// the same spec later resumes warm. The transition is journaled before
// the run is interrupted, so a coordinator restarted at any instant
// replays the job as cancelled and never requeues it.
func (s *Server) Cancel(id string) (*Job, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w %q", ErrUnknownJob, id)
	}
	if j.State.terminal() {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %s is %s", ErrJobTerminal, id, j.State)
	}
	var cancelRun context.CancelFunc
	was := j.State
	wasQueued := was == StateQueued
	if wasQueued {
		s.dequeueLocked(j)
	} else {
		cancelRun = s.cancels[id]
	}
	j.State = StateCancelled
	j.FinishedUnix = time.Now().Unix()
	rec := j.clone()
	s.publishLocked(j)
	s.syncGaugesLocked()
	for ch := range s.subs[id] {
		close(ch)
	}
	delete(s.subs, id)
	s.mu.Unlock()
	mJobsCancelled.Inc()

	// Journal before interrupting the run: the cancelled mark must be
	// durable before execution can observe the abort and race a restart.
	if err := s.jr.putJob(rec); err != nil {
		s.log.Error("journal write failed", "job", rec.ID, "error", err)
	}
	if cancelRun != nil {
		cancelRun()
	}
	s.log.Info("job cancelled", "job", id, "was", string(was),
		obs.TraceAttr(traceIDOf(rec)))
	if wasQueued {
		// A running job's execute unwind prunes; a dequeued job settles here.
		s.prune()
	}
	s.cond.Broadcast()
	return rec, nil
}

// prune enforces Config.Retain: keep only the newest Retain terminal job
// records (by submission order), removing older ones from memory and from
// the journal — report files included. Queued and running jobs are never
// touched.
func (s *Server) prune() {
	if s.cfg.Retain <= 0 {
		return
	}
	s.mu.Lock()
	var terminal []string
	for _, id := range s.order {
		if s.jobs[id].State.terminal() {
			terminal = append(terminal, id)
		}
	}
	var victims []string
	if drop := len(terminal) - s.cfg.Retain; drop > 0 {
		victims = terminal[:drop]
		gone := map[string]bool{}
		for _, id := range victims {
			gone[id] = true
			delete(s.jobs, id)
		}
		kept := s.order[:0]
		for _, id := range s.order {
			if !gone[id] {
				kept = append(kept, id)
			}
		}
		s.order = kept
	}
	s.mu.Unlock()
	for _, id := range victims {
		if err := s.jr.remove(id); err != nil {
			s.log.Error("retention prune failed", "job", id, "error", err)
		} else {
			s.log.Info("retention pruned job", "job", id)
		}
	}
}

// progress records live campaign progress and fans it out to subscribers.
func (s *Server) progress(j *Job, done, total int) {
	s.mu.Lock()
	if j.State == StateRunning && done > j.Done {
		j.Done, j.Total = done, total
		s.publishLocked(j)
	}
	s.mu.Unlock()
}

// eventOfLocked snapshots a job as a stream event.
func eventOfLocked(j *Job) Event {
	return Event{
		Job:   j.ID,
		State: j.State,
		Done:  j.Done,
		Total: j.Total,
		Error: j.Error,
	}
}

// publishLocked fans an event out without blocking: a slow subscriber
// loses intermediate progress events (they are advisory), never the
// terminal transition — stream teardown re-snapshots the job.
func (s *Server) publishLocked(j *Job) {
	if s.closed {
		return
	}
	ev := eventOfLocked(j)
	for ch := range s.subs[j.ID] {
		select {
		case ch <- ev:
		default:
		}
	}
}

// subscribe attaches an event stream to a job. The returned snapshot is
// the stream's first event; ch is nil when the job is already terminal.
// cancel detaches (idempotent, safe after close).
func (s *Server) subscribe(id string) (snapshot Event, ch chan Event, cancel func(), ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, known := s.jobs[id]
	if !known {
		return Event{}, nil, nil, false
	}
	snapshot = eventOfLocked(j)
	if j.State.terminal() || s.closed {
		return snapshot, nil, func() {}, true
	}
	ch = make(chan Event, 256)
	if s.subs[id] == nil {
		s.subs[id] = map[chan Event]bool{}
	}
	s.subs[id][ch] = true
	cancel = func() {
		s.mu.Lock()
		if subs, live := s.subs[id]; live && subs[ch] {
			delete(subs, ch)
			close(ch)
		}
		s.mu.Unlock()
	}
	return snapshot, ch, cancel, true
}

// Close stops accepting and scheduling work and tears down event streams.
// It waits for in-flight jobs to settle — cancel the Start context first
// to abort (and requeue) them rather than waiting them out.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for _, subs := range s.subs {
		for ch := range subs {
			close(ch)
		}
	}
	s.subs = map[string]map[chan Event]bool{}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}
