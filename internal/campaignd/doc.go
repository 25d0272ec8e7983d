// Package campaignd implements the durable always-on campaign service: a
// coordinator daemon that accepts (agents × tests) matrix jobs over an
// HTTP/JSON API, runs them first in, first out on one shared result store
// (and, optionally, one persistent dist.Fleet of workers), and survives
// being killed at any instant.
//
// # Durability model
//
// The service keeps two kinds of durable state, both under the store
// directory:
//
//   - The write-ahead job journal (campaignd/jobs, campaignd/reports):
//     one atomic JSON record per job, re-written on every state
//     transition *before* the transition is acted on — a submission is
//     journaled before the HTTP ack, a start before execution, a report
//     before its done mark. Replay on open therefore recovers a
//     consistent job table; jobs found in the running state are requeued.
//
//   - The content-addressed result store itself, which is the durable
//     record of sub-job progress. Every completed cell of every campaign
//     is a store entry keyed by (agent, test, engine config, code
//     version); a requeued job's re-execution hits the cache for
//     everything the dead coordinator finished and re-explores only the
//     rest.
//
// The glue between the two is the engine's byte-identical determinism:
// because an exploration produces the same bytes at any worker count and
// any distributed layout, "re-run the job" and "resume the job" are
// observably the same operation, and a campaign interrupted by SIGKILL
// yields a canonical report byte-identical to an uninterrupted run.
//
// # Scheduling
//
// Jobs wait in one FIFO queue; at most Config.MaxActive run concurrently,
// and the scheduler starts them in submission order. A job requeued by a
// shutdown goes back to the head of the queue, so a resume finishes it
// before newer work. The order is observable through each job's StartSeq.
//
// # API
//
// Server.Handler serves the versioned HTTP API (submit, list, fetch,
// SSE progress stream, report download, daemon status); Client is its Go
// counterpart, used by the soft CLI's submit/jobs/fetch verbs and by
// soft.RunMatrix when a campaign service address is configured. See the
// Handler documentation for the route table.
package campaignd
