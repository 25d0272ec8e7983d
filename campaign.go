package soft

import (
	"bytes"
	"context"
	"fmt"

	"github.com/soft-testing/soft/internal/campaignd"
	"github.com/soft-testing/soft/internal/obs"
	"github.com/soft-testing/soft/internal/sched"
)

// Campaign-service types. A campaign service (`soft campaignd`) is an
// always-on coordinator that accepts matrix jobs over HTTP, journals them
// durably in its store directory, runs them first in, first out, and
// survives being killed mid-campaign: on restart it resumes every
// in-flight job, and determinism plus the content-addressed store make the
// resumed report byte-identical to an uninterrupted run.
type (
	// CampaignClient talks to a campaign service. Its zero value is not
	// useful; construct one with NewCampaignClient.
	CampaignClient = campaignd.Client
	// CampaignJob is one journaled job record: spec, lifecycle state,
	// restart count, and progress counters.
	CampaignJob = campaignd.Job
	// CampaignJobSpec is what Submit sends: the matrix plus the engine
	// configuration its cells share. Empty Agents/Tests mean "all".
	CampaignJobSpec = campaignd.JobSpec
	// CampaignEvent is one progress event on a job's stream.
	CampaignEvent = campaignd.Event
	// CampaignJobMetrics is one job's derived timing metrics: queue wait,
	// run duration, and restart count computed from the journal timestamps.
	CampaignJobMetrics = campaignd.JobMetrics
	// CampaignStatus is the service's daemon-level counter snapshot.
	CampaignStatus = campaignd.Status
	// CampaignJobState is a job's lifecycle position.
	CampaignJobState = campaignd.JobState
)

// Campaign job lifecycle states: queued → running → done | failed |
// cancelled. A coordinator restart moves running jobs back to queued,
// never to failed; cancellation is journaled as terminal, so a restart
// never requeues a cancelled job.
const (
	CampaignQueued    = campaignd.StateQueued
	CampaignRunning   = campaignd.StateRunning
	CampaignDone      = campaignd.StateDone
	CampaignFailed    = campaignd.StateFailed
	CampaignCancelled = campaignd.StateCancelled
)

// NewCampaignClient returns a client for the campaign service at baseURL
// (e.g. "http://127.0.0.1:7130"). The client is used by the soft CLI's
// submit/jobs/fetch verbs, and by RunMatrix when WithCampaignService
// routes a campaign through a service instead of running it in-process.
func NewCampaignClient(baseURL string) *CampaignClient {
	return campaignd.NewClient(baseURL)
}

// ReadMatrixReport parses a canonical campaign report (what
// MatrixReport.Write renders, `soft matrix -o` writes, and a campaign
// service serves) back into a MatrixReport. Parsed reports carry the
// canonical surface only — cell summaries, pair checks, inconsistencies —
// not the full per-cell results; Write∘ReadMatrixReport is the identity on
// canonical bytes.
func ReadMatrixReport(data []byte) (*MatrixReport, error) {
	return sched.ReadReport(bytes.NewReader(data))
}

// runMatrixRemote is RunMatrix's campaign-service path: submit the matrix
// as one job, stream progress, and parse the canonical report the service
// produced. Determinism makes the result indistinguishable from a local
// run — byte-identical canonical bytes — but only the canonical surface
// comes back (no in-memory cell results), and fleet/cache statistics stay
// with the service.
func runMatrixRemote(ctx context.Context, cfg *config, agents, tests []string) (*MatrixReport, error) {
	if cfg.fleetLn != nil {
		cfg.fleetLn.Close()
		return nil, fmt.Errorf("soft: WithFleetListener and WithCampaignService are mutually exclusive — workers join the service's fleet, not the client's")
	}
	cl := NewCampaignClient(cfg.campaignURL)
	spec := CampaignJobSpec{
		Agents:      agents,
		Tests:       tests,
		MaxPaths:    cfg.maxPaths,
		MaxDepth:    cfg.maxDepth,
		Models:      cfg.models,
		CrossCheck:  !cfg.noCrossCheck,
		CodeVersion: cfg.codeVersion,
	}
	// With a local tracer active, thread the trace through the service:
	// the job is submitted traced (the id rides the spec and the
	// traceparent-style header), and the daemon's bundle — its own spans
	// plus every fleet worker's — merges back into this process's trace
	// once the job settles. Observation only, like all tracing.
	traced := obs.Tracing()
	if traced {
		spec.Trace = true
		spec.TraceID = obs.FormatTraceID(obs.NewTraceID())
	}
	job, err := cl.Submit(ctx, spec)
	if err != nil {
		return nil, err
	}
	sp := obs.StartSpan("campaign:" + job.ID)
	defer sp.End()
	var onEvent func(CampaignEvent)
	if cfg.progress != nil {
		progress := cfg.progress
		onEvent = func(ev CampaignEvent) {
			progress(Event{Phase: PhaseMatrix, Done: ev.Done, Total: ev.Total})
		}
	}
	final, err := cl.Watch(ctx, job.ID, onEvent)
	if err != nil {
		return nil, err
	}
	if final.State != CampaignDone {
		return nil, fmt.Errorf("soft: campaign job %s %s: %s", final.ID, final.State, final.Error)
	}
	data, err := cl.Report(ctx, final.ID)
	if err != nil {
		return nil, err
	}
	if traced {
		// Trace download failures never fail the campaign — the report is
		// the product, the trace an advisory artifact.
		if b, terr := cl.Trace(ctx, final.ID); terr == nil {
			if tr := obs.Active(); tr != nil {
				tr.MergeBundle(b)
			}
		} else if cfg.logger != nil {
			cfg.logger.Warn("campaign trace download failed", "job", final.ID, "err", terr)
		}
	}
	return ReadMatrixReport(data)
}
