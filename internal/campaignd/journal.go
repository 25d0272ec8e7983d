package campaignd

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// JobState is a job's position in the service lifecycle.
type JobState string

// The job lifecycle: queued → running → done | failed | cancelled. A
// coordinator restart moves running jobs back to queued (the journal's
// replay), never to failed — execution state below the job level is
// recovered from the result store, not the journal. Cancellation is
// journaled as a terminal state, so a restarted coordinator does not
// requeue a cancelled job.
const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// terminal reports whether a state is final.
func (s JobState) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// JobSpec is what a client submits: one campaign matrix plus the engine
// configuration its cells share. Empty Agents/Tests mean "all registered";
// the daemon expands them at submission time so the journaled spec pins the
// concrete matrix.
type JobSpec struct {
	Agents []string `json:"agents"`
	Tests  []string `json:"tests"`

	MaxPaths   int  `json:"max_paths,omitempty"`
	MaxDepth   int  `json:"max_depth,omitempty"`
	Models     bool `json:"models"`
	CrossCheck bool `json:"crosscheck"`

	// CodeVersion overrides the cache-key code version for this job's
	// store lookups; empty uses the daemon's version.
	CodeVersion string `json:"code_version,omitempty"`

	// Trace asks the daemon to collect a distributed trace for this job:
	// coordinator spans plus every worker's shipped segments, journaled at
	// job end and served by GET /api/v1/jobs/<id>/trace. Pure
	// observability — a traced job's report is byte-identical to an
	// untraced one.
	Trace bool `json:"trace,omitempty"`
	// TraceID is the job's 64-bit trace correlation id in hex (see
	// obs.FormatTraceID). Empty with Trace set means the daemon mints
	// one at submission so the journal pins it; setting it implies Trace.
	TraceID string `json:"trace_id,omitempty"`
}

// Job is one journaled campaign job: the durable record (spec, state,
// ownership, timestamps) plus live progress counters that are advisory
// between journal writes.
type Job struct {
	ID string `json:"id"`
	// Seq is the submission sequence number (IDs are derived from it).
	Seq  uint64  `json:"seq"`
	Spec JobSpec `json:"spec"`

	State JobState `json:"state"`
	// Error is set for failed jobs.
	Error string `json:"error,omitempty"`
	// Restarts counts coordinator restarts this job survived while
	// in flight.
	Restarts int `json:"restarts,omitempty"`
	// StartSeq is the scheduler's global dispatch counter value when the
	// job last started — the observable dispatch order.
	StartSeq uint64 `json:"start_seq,omitempty"`

	SubmittedUnix int64 `json:"submitted_unix"`
	StartedUnix   int64 `json:"started_unix,omitempty"`
	FinishedUnix  int64 `json:"finished_unix,omitempty"`

	// Done/Total are campaign work units (cells + pair checks) completed
	// and planned; Inconsistencies is set once the job is done.
	Done            int `json:"done,omitempty"`
	Total           int `json:"total,omitempty"`
	Inconsistencies int `json:"inconsistencies,omitempty"`
}

// clone returns a copy safe to hand across the API boundary.
func (j *Job) clone() *Job {
	c := *j
	c.Spec.Agents = append([]string(nil), j.Spec.Agents...)
	c.Spec.Tests = append([]string(nil), j.Spec.Tests...)
	return &c
}

// journal is the write-ahead job journal: one JSON file per job under
// <dir>/jobs, plus the canonical report bytes of completed jobs under
// <dir>/reports. Every write is atomic (temp file + rename), and state
// transitions are journaled before they are acted on — submission before
// the HTTP ack, start before execution, the report before the done mark —
// so a coordinator killed at any instant restarts into a consistent view:
// a job is either durably queued, durably running (requeued on replay), or
// durably finished with its report on disk.
type journal struct {
	dir string
}

func openJournal(dir string) (*journal, error) {
	for _, sub := range []string{"jobs", "reports", "traces"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("campaignd: %w", err)
		}
	}
	return &journal{dir: dir}, nil
}

func (jr *journal) jobPath(id string) string {
	return filepath.Join(jr.dir, "jobs", id+".json")
}

func (jr *journal) reportPath(id string) string {
	return filepath.Join(jr.dir, "reports", id+".report")
}

func (jr *journal) tracePath(id string) string {
	return filepath.Join(jr.dir, "traces", id+".trace.json")
}

// putJob journals a job record atomically.
func (jr *journal) putJob(j *Job) error {
	data, err := json.MarshalIndent(j, "", "  ")
	if err != nil {
		return fmt.Errorf("campaignd: %w", err)
	}
	return jr.writeAtomic(jr.jobPath(j.ID), append(data, '\n'))
}

// jobs loads every journaled job, ordered by submission sequence.
func (jr *journal) jobs() ([]*Job, error) {
	entries, err := os.ReadDir(filepath.Join(jr.dir, "jobs"))
	if err != nil {
		return nil, fmt.Errorf("campaignd: %w", err)
	}
	var out []*Job
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(jr.dir, "jobs", e.Name()))
		if err != nil {
			return nil, fmt.Errorf("campaignd: %w", err)
		}
		j := &Job{}
		if err := json.Unmarshal(data, j); err != nil {
			return nil, fmt.Errorf("campaignd: corrupt journal entry %s: %w", e.Name(), err)
		}
		if j.ID != strings.TrimSuffix(e.Name(), ".json") {
			return nil, fmt.Errorf("campaignd: journal entry %s claims id %q", e.Name(), j.ID)
		}
		out = append(out, j)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out, nil
}

// putReport persists a completed job's canonical report bytes. It is
// written before the job's done record, so a done job always has its
// report.
func (jr *journal) putReport(id string, data []byte) error {
	return jr.writeAtomic(jr.reportPath(id), data)
}

// putTrace persists a traced job's drained segment bundle (JSON). Traces
// are advisory: a failed write is logged, never fails the job.
func (jr *journal) putTrace(id string, data []byte) error {
	return jr.writeAtomic(jr.tracePath(id), data)
}

// trace loads a traced job's segment bundle; ok=false when absent (the
// job was untraced, or has not drained yet).
func (jr *journal) trace(id string) ([]byte, bool, error) {
	data, err := os.ReadFile(jr.tracePath(id))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("campaignd: %w", err)
	}
	return data, true, nil
}

// report loads a completed job's canonical report; ok=false when absent.
func (jr *journal) report(id string) ([]byte, bool, error) {
	data, err := os.ReadFile(jr.reportPath(id))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("campaignd: %w", err)
	}
	return data, true, nil
}

func (jr *journal) writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("campaignd: %w", err)
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("campaignd: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("campaignd: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("campaignd: %w", err)
	}
	return nil
}

// remove deletes a job's journal record, report, and trace (retention
// pruning). Missing files are fine — a cancelled or failed job has no
// report, an untraced job no trace.
func (jr *journal) remove(id string) error {
	var firstErr error
	for _, path := range []string{jr.jobPath(id), jr.reportPath(id), jr.tracePath(id)} {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			if firstErr == nil {
				firstErr = fmt.Errorf("campaignd: %w", err)
			}
		}
	}
	return firstErr
}

// jobID renders the canonical id for a submission sequence number.
func jobID(seq uint64) string { return fmt.Sprintf("j%06d", seq) }

// seqOf recovers the sequence number from an id ("" mismatch → 0, false).
func seqOf(id string) (uint64, bool) {
	num, found := strings.CutPrefix(id, "j")
	if !found {
		return 0, false
	}
	n, err := strconv.ParseUint(num, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}
