package campaignd

import (
	"time"

	"github.com/soft-testing/soft/internal/obs"
)

// Campaign-service metrics. The journal remains the durable record; these
// mirror job lifecycle events into the process-global registry for the
// /metrics endpoint. Observation only — scheduling never reads them.
var (
	mJobsSubmitted = obs.NewCounter("soft_campaignd_jobs_submitted_total")
	mJobsDone      = obs.NewCounter("soft_campaignd_jobs_done_total")
	mJobsFailed    = obs.NewCounter("soft_campaignd_jobs_failed_total")
	mJobsCancelled = obs.NewCounter("soft_campaignd_jobs_cancelled_total")
	mJobsRestarted = obs.NewCounter("soft_campaignd_jobs_restarted_total")
	mJobsQueued    = obs.NewGauge("soft_campaignd_jobs_queued")
	mJobsRunning   = obs.NewGauge("soft_campaignd_jobs_running")
	// Queue wait (submission → dispatch) and run duration (dispatch →
	// terminal) per job, at the journal's second granularity.
	mQueueWait   = obs.NewHistogram("soft_campaignd_queue_wait_ns")
	mRunDuration = obs.NewHistogram("soft_campaignd_run_duration_ns")
)

// syncGaugesLocked recounts the queued/running gauges from job state.
// Recounting (rather than increment bookkeeping spread over every
// transition path) keeps the gauges trivially consistent with the jobs
// map; the map is retention-bounded, so the scan is cheap.
func (s *Server) syncGaugesLocked() {
	var q, r int64
	for _, j := range s.jobs {
		switch j.State {
		case StateQueued:
			q++
		case StateRunning:
			r++
		}
	}
	mJobsQueued.Set(q)
	mJobsRunning.Set(r)
}

// JobMetrics is the per-job timing snapshot GET /jobs/<id>/metrics serves,
// derived from the journal's lifecycle timestamps.
type JobMetrics struct {
	Job   string   `json:"job"`
	State JobState `json:"state"`
	// QueueWaitSeconds is submission → dispatch (for still-queued jobs,
	// submission → now). RunSeconds is dispatch → terminal (for running
	// jobs, dispatch → now). Zero when the phase has not begun.
	QueueWaitSeconds float64 `json:"queue_wait_seconds"`
	RunSeconds       float64 `json:"run_seconds"`
	Restarts         int     `json:"restarts"`
	Done             int     `json:"done"`
	Total            int     `json:"total"`
	Inconsistencies  int     `json:"inconsistencies"`
}

// metricsOf derives a JobMetrics snapshot from a job record at time now.
func metricsOf(j *Job, now time.Time) JobMetrics {
	m := JobMetrics{
		Job: j.ID, State: j.State,
		Restarts: j.Restarts, Done: j.Done, Total: j.Total,
		Inconsistencies: j.Inconsistencies,
	}
	switch {
	case j.StartedUnix > 0:
		m.QueueWaitSeconds = float64(j.StartedUnix - j.SubmittedUnix)
	case j.SubmittedUnix > 0:
		m.QueueWaitSeconds = now.Sub(time.Unix(j.SubmittedUnix, 0)).Seconds()
	}
	switch {
	case j.StartedUnix > 0 && j.FinishedUnix > 0:
		m.RunSeconds = float64(j.FinishedUnix - j.StartedUnix)
	case j.StartedUnix > 0:
		m.RunSeconds = now.Sub(time.Unix(j.StartedUnix, 0)).Seconds()
	}
	if m.QueueWaitSeconds < 0 {
		m.QueueWaitSeconds = 0
	}
	if m.RunSeconds < 0 {
		m.RunSeconds = 0
	}
	return m
}
