package soft

import (
	"io"
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
	maxPaths    int
	maxDepth    int
	workers     int
	models      bool
	budget      time.Duration
	strategy    Strategy
	solver      *Solver
	progress    func(Event)
	incremental bool

	canonicalCut    bool
	canonicalCutSet bool
	shardDepth      int
	adaptiveShards  bool
	leaseTimeout    time.Duration
	log             io.Writer
	logger          *slog.Logger
	workerName      string

	storeDir     string
	codeVersion  string
	fleetLn      net.Listener
	noCrossCheck bool

	campaignURL string
	tenant      string

	scenarios []string
}

func newConfig(opts []Option) *config {
	cfg := &config{incremental: true}
	for _, o := range opts {
		o(cfg)
	}
	return cfg
}

// canonicalCutOr resolves the tri-state canonical-cut option: explicit
// choices win, otherwise the caller's default applies (false for in-process
// Explore, true for distributed Serve).
func (c *config) canonicalCutOr(def bool) bool {
	if c.canonicalCutSet {
		return c.canonicalCut
	}
	return def
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

// WithSolver reuses an existing solver (and its query cache) across
// pipeline stages; nil means a fresh solver per call.
func WithSolver(s *Solver) Option { return func(c *config) { c.solver = s } }

// WithIncrementalSolver controls the assumption-stack solver sessions used
// by exploration (Explore, ExploreHandler, Serve, and RunMatrix cells;
// CrossCheck ignores it). On — the default — each exploration worker keeps
// one persistent SAT core for its whole run: every path-condition conjunct
// is encoded once behind an activation literal, a child path pushes only
// its new branch constraint, and sibling paths share the session's clause
// database and learned conflicts. Results are byte-identical on or off;
// the switch exists to benchmark the win and to fall back to per-path
// solvers if a workload ever regresses.
func WithIncrementalSolver(on bool) Option { return func(c *config) { c.incremental = on } }

// WithCanonicalCut controls how a MaxPaths cap truncates exploration. On,
// the run keeps the MaxPaths canonically smallest paths (lexicographic
// decision-prefix order) instead of the first MaxPaths that happened to
// complete, making truncated results byte-identical across worker counts
// and distributed layouts — at the cost of exploring somewhat past the cap
// before the cut converges. Defaults: off for Explore/ExploreHandler
// (preserving the cheap first-N behavior), on for Serve (a distributed
// truncation must not depend on which worker finished first).
func WithCanonicalCut(on bool) Option {
	return func(c *config) { c.canonicalCut = on; c.canonicalCutSet = true }
}

// WithShardDepth tunes how the distributed coordinator splits the frontier
// (Serve and RunMatrix): forks deeper than this many decisions become
// worker shards, shallower prefixes the coordinator explores itself during
// the split. 0 means the dist default.
func WithShardDepth(d int) Option { return func(c *config) { c.shardDepth = d } }

// WithAdaptiveShards enables progress-driven shard balancing (Serve and
// RunMatrix): a leased subtree that reports slow progress while workers
// starve is speculatively re-split into deeper sub-shards, and trivially
// small shards ride batched leases. Balancing never changes results —
// every layout is byte-identical — it only improves how evenly unbalanced
// execution trees spread over the fleet. `soft serve -shard-depth=auto`
// sets this.
func WithAdaptiveShards(on bool) Option { return func(c *config) { c.adaptiveShards = on } }

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
// one worker before the coordinator re-offers it to another (Serve and
// RunMatrix fleets). Re-leasing never affects results — the first
// completion wins, and determinism makes duplicates byte-identical. 0
// means the dist default; negative disables timeout re-leasing
// (disconnects still re-lease).
func WithLeaseTimeout(d time.Duration) Option {
	return func(c *config) { c.leaseTimeout = d }
}

// WithLog streams distributed lifecycle lines (worker connects, lease
// grants, re-leases, shard completions) from Serve and Work to w. Lines
// render through the structured text handler; WithLogger chooses the
// handler (JSON output, level filtering) explicitly and wins over
// WithLog when both are set.
func WithLog(w io.Writer) Option { return func(c *config) { c.log = w } }

// WithLogger routes distributed lifecycle logging (Serve, Work, and
// RunMatrix fleets) through an explicit slog.Logger. Every line carries
// the job/lease/shard/worker ids as attributes, plus the trace id when
// the run is traced — the cross-process correlation key. Build a handler
// with obs.NewLogger (text or JSON) or bring any slog backend.
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
