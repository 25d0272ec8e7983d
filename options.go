package soft

import (
	"log/slog"
	"net"
	"time"

	"github.com/soft-testing/soft/internal/symexec"
)

// Option tunes Explore, ExploreHandler, CrossCheck, or InjectedFindings.
// Options irrelevant to a call are ignored (WithBudget by Explore,
// WithMaxPaths by CrossCheck, ...), so one option list can be shared by a
// whole pipeline run.
type Option func(*config)

type config struct {
	maxPaths int
	maxDepth int
	workers  int
	models   bool
	budget   time.Duration
	strategy Strategy
	solver   *Solver
	progress func(Event)

	canonicalCut bool
	shardDepth   int
	leaseTimeout time.Duration
	logger       *slog.Logger
	workerName   string

	storeDir     string
	codeVersion  string
	fleetLn      net.Listener
	noCrossCheck bool

	campaignURL string
	tenant      string

	scenarios []string
}

func newConfig(opts []Option) *config {
	cfg := &config{}
	for _, o := range opts {
		o(cfg)
	}
	return cfg
}

// WithWorkers sets the number of parallel workers: exploration workers for
// Explore/ExploreHandler, solver-query workers for CrossCheck (0 =
// GOMAXPROCS, 1 = sequential). Exhaustive explorations and full
// crosschecks are deterministic for every worker count.
func WithWorkers(n int) Option { return func(c *config) { c.workers = n } }

// WithMaxPaths caps the number of explored paths (0 = the harness
// default). The paper notes SOFT works with partial path sets too; a
// truncated run sets Result.Truncated.
func WithMaxPaths(n int) Option { return func(c *config) { c.maxPaths = n } }

// WithMaxDepth caps symbolic decisions per path (0 = the harness default).
func WithMaxDepth(n int) Option { return func(c *config) { c.maxDepth = n } }

// WithBudget bounds a crosscheck's wall-clock time; an expired budget
// stops the cross product and marks the Report partial (the paper's
// ">28h" CS FlowMods row). For hard deadlines on exploration use a
// context.WithTimeout instead — contexts cancel promptly, the budget is
// only checked between solver queries.
func WithBudget(d time.Duration) Option { return func(c *config) { c.budget = d } }

// WithStrategy overrides the engine's search strategy (default:
// Interleaved(1), the Cloud9 default per §4.1). Exhaustive runs produce
// the same result for every strategy; partial runs explore
// strategy-dependent prefixes.
func WithStrategy(s Strategy) Option { return func(c *config) { c.strategy = s } }

// WithModels extracts a concrete input example per explored path. Models
// make results self-contained test suites but cost one extra solver call
// per path.
func WithModels(want bool) Option { return func(c *config) { c.models = want } }

// WithSolver shares an existing solver (and its query cache) across
// CrossCheck calls; nil means a fresh solver per call. Exploration never
// uses it: each exploration worker answers its path queries on its own
// incremental SAT session.
func WithSolver(s *Solver) Option { return func(c *config) { c.solver = s } }

// WithCanonicalCut controls how a MaxPaths cap truncates Explore and
// ExploreHandler. On, the run keeps the MaxPaths canonically smallest
// paths (lexicographic decision-prefix order) instead of the first
// MaxPaths that happened to complete, making truncated results
// byte-identical across worker counts — at the cost of exploring somewhat
// past the cap before the cut converges. Off by default (the cheap first-N
// behavior); RunMatrix cells always use the canonical cut, because a fleet
// truncation must not depend on which worker finished first.
func WithCanonicalCut(on bool) Option { return func(c *config) { c.canonicalCut = on } }

// WithShardDepth tunes how the distributed coordinator splits the frontier
// (RunMatrix fleets): forks deeper than this many decisions become
// worker shards, shallower prefixes the coordinator explores itself during
// the split. 0 means the dist default.
func WithShardDepth(d int) Option { return func(c *config) { c.shardDepth = d } }

// WithStore enables the campaign result store (RunMatrix): cell results
// and grouping constructions are cached content-addressed in this
// directory, keyed by (agent, test, engine config, code version), so a
// re-run only explores cells whose inputs changed. The directory is
// created if needed; it may be shared by concurrent campaigns.
func WithStore(dir string) Option { return func(c *config) { c.storeDir = dir } }

// WithCodeVersion overrides the code-version component of campaign cache
// keys (default CodeVersion(), the binary's VCS build stamp). Pin it to a
// build identifier in deployments where the stamp is unavailable.
func WithCodeVersion(v string) Option { return func(c *config) { c.codeVersion = v } }

// WithFleetListener makes RunMatrix run non-cached cells on a persistent
// worker fleet listening on ln: `soft work` processes (or Work calls)
// connect once and drain the whole matrix, job by job, without
// reconnecting. The campaign owns the listener and closes it when done.
func WithFleetListener(ln net.Listener) Option { return func(c *config) { c.fleetLn = ln } }

// WithCrossCheck controls the campaign's phase 2 (RunMatrix; default on):
// false explores (and caches) the matrix cells without crosschecking agent
// pairs.
func WithCrossCheck(on bool) Option { return func(c *config) { c.noCrossCheck = !on } }

// WithCampaignService routes RunMatrix through an always-on campaign
// service (`soft campaignd`) at baseURL instead of running in-process: the
// matrix is submitted as one job, progress streams back through
// WithProgress, and the returned report is parsed from the service's
// canonical bytes — byte-identical to a local run of the same campaign,
// but carrying the canonical surface only (no in-memory cell results).
// Store, fleet, and worker options then live with the service;
// WithFleetListener is mutually exclusive with this option.
func WithCampaignService(baseURL string) Option {
	return func(c *config) { c.campaignURL = baseURL }
}

// WithTenant names the submitting tenant for campaign-service jobs
// (default "default"). The service schedules fair-share across tenants,
// so one backlogged tenant cannot starve the rest.
func WithTenant(name string) Option { return func(c *config) { c.tenant = name } }

// WithScenarios appends the named scenarios (registered via
// RegisterScenario, or generated "gen:<index>" names) as extra columns of
// a RunMatrix campaign: cells become agent × test∪scenario. Scenario
// cells run through the same store/fleet/service machinery as Table 1
// cells and carry their definition hash in the cache key, so editing a
// scenario invalidates exactly its own cells.
func WithScenarios(names ...string) Option {
	return func(c *config) { c.scenarios = append(c.scenarios, names...) }
}

// WithLeaseTimeout bounds how long a distributed shard may stay leased to
// one worker before the coordinator re-offers it to another (RunMatrix
// fleets). Re-leasing never affects results — the first
// completion wins, and determinism makes duplicates byte-identical. 0
// means the dist default; negative disables timeout re-leasing
// (disconnects still re-lease).
func WithLeaseTimeout(d time.Duration) Option {
	return func(c *config) { c.leaseTimeout = d }
}

// WithLogger routes lifecycle logging (Work, RunMatrix cells and checks,
// and RunMatrix fleets) through an explicit slog.Logger. Every
// line carries the job/lease/shard/worker or agent/test ids as
// attributes, plus the trace id when the run is traced — the
// cross-process correlation key. Build a handler with obs.NewLogger (text
// or JSON) or bring any slog backend. Without it nothing is logged.
func WithLogger(l *slog.Logger) Option { return func(c *config) { c.logger = l } }

// WithWorkerName labels a Work process in coordinator logs (default
// "hostname/pid").
func WithWorkerName(name string) Option { return func(c *config) { c.workerName = name } }

// WithProgress streams progress events from long runs to fn. Events are
// dispatched through a bounded queue drained by a single goroutine: fn is
// never invoked concurrently, always sees events in enqueue order, and may
// block without stalling exploration — when it falls behind, incremental
// events are dropped (counted in the soft_progress_events_dropped_total
// metric; counts are monotone high-water marks, so drops only coarsen the
// stream). The final event a stage emits — the one carrying Stats — is
// never dropped, and fn has returned from every call before the entry
// point returns. Events are advisory: they never affect results.
func WithProgress(fn func(Event)) Option { return func(c *config) { c.progress = fn } }

// Phase identifies which pipeline stage emitted an Event.
type Phase string

// Pipeline stages reported through WithProgress.
const (
	PhaseExplore    Phase = "explore"
	PhaseCrossCheck Phase = "crosscheck"
	// PhaseMatrix events report campaign progress: Done counts completed
	// work units (cells plus pair checks) out of Total.
	PhaseMatrix Phase = "matrix"
)

// Event is one progress report from a running pipeline stage.
type Event struct {
	Phase Phase
	// Agent is the exploring agent (PhaseExplore, empty for
	// ExploreHandler) or the crosscheck's first agent (PhaseCrossCheck).
	Agent string
	// AgentB is the crosscheck's second agent.
	AgentB string
	// Test is the test under exploration or crosscheck.
	Test string
	// Done counts completed paths (PhaseExplore) or claimed group pairs
	// (PhaseCrossCheck). Counts are monotonically increasing but may be
	// observed out of order under concurrency.
	Done int
	// Total is the known amount of work (group pairs for PhaseCrossCheck;
	// 0 for PhaseExplore, where the path count is not known in advance).
	Total int
	// Stats carries the stage's solver statistics (queries, cache hits,
	// solve time). It is set only on the final event a stage emits, after
	// its work completed; nil on incremental events.
	Stats *SolverStats
}

// Search strategies for WithStrategy. All built-ins support parallel
// exploration (per-worker frontier instances with deterministic seeds).

// DFS explores depth-first.
func DFS() Strategy { return symexec.NewDFS() }

// BFS explores breadth-first.
func BFS() Strategy { return symexec.NewBFS() }

// RandomStrategy explores in deterministic pseudo-random order.
func RandomStrategy(seed int64) Strategy { return symexec.NewRandom(seed) }

// CoverageOptimized prioritizes paths whose pending branch direction is
// not yet covered.
func CoverageOptimized() Strategy { return symexec.NewCoverageOptimized() }

// Interleaved alternates coverage-optimized and random selection — the
// engine's default, mirroring Cloud9's (§4.1).
func Interleaved(seed int64) Strategy { return symexec.NewInterleaved(seed) }
