package soft

import (
	"context"

	"github.com/soft-testing/soft/internal/dist"
	"github.com/soft-testing/soft/internal/sched"
	"github.com/soft-testing/soft/internal/store"
)

// Campaign-mode types. A campaign runs the whole (agents × tests)
// evaluation matrix — the paper's full crosscheck experiment — as one
// scheduled unit, optionally over a persistent worker fleet and an
// incremental result store.
type (
	// MatrixReport is a campaign outcome: per-cell phase-1 results,
	// per-pair crosscheck reports, and fleet/solver/cache statistics. Its
	// Write method renders the canonical machine-readable form, which is
	// byte-identical across runs of the same campaign regardless of fleet
	// layout, worker crashes, or cache hits.
	MatrixReport = sched.Report
	// MatrixCell is one (agent, test) exploration cell.
	MatrixCell = sched.Cell
	// MatrixCheck is one crosschecked agent pair on one test.
	MatrixCheck = sched.PairCheck
	// FleetStats counts worker-fleet lifecycle events (connections,
	// leases, coalesced batches, re-leases, stale results).
	FleetStats = dist.FleetStats
)

// ErrProtocolMismatch is wrapped by Work's error when a coordinator
// refuses this binary's distributed-protocol version; deploy matching
// binaries on both sides.
var ErrProtocolMismatch = dist.ErrVersionMismatch

// CodeVersion is the running binary's code-version string as used in
// campaign cache keys: the VCS revision it was built from (with a +dirty
// marker for modified trees) when available. Cached campaign cells are
// keyed by it, so rebuilding from new code re-explores every cell; pin it
// explicitly with WithCodeVersion in deployments with their own build
// identifiers.
func CodeVersion() string { return store.DefaultCodeVersion() }

// RunMatrix runs a campaign: SOFT's phase 1 for every (agent, test) cell
// of the matrix, then — unless disabled with WithCrossCheck(false) —
// phase 2 for every agent pair on every test. Agents and tests are named
// by registry keys (RegisterAgent/Agents, Tests); an empty agents slice
// means every registered agent, an empty tests slice the whole evaluation
// suite.
//
// Cells are deterministic and independently cacheable:
//
//   - With WithFleetListener, non-cached cells run as jobs on a persistent
//     dist worker fleet (soft work processes connect once and drain the
//     whole matrix); without it, cells are explored in-process. Either way
//     each cell's result is byte-identical to `Explore` of that cell (with
//     the canonical MaxPaths cut), and the campaign report is
//     byte-identical across layouts and worker crashes.
//
//   - With WithStore, results and grouping constructions are cached in a
//     content-addressed on-disk store keyed by (agent, test, engine
//     config, code version); a warm re-run hits the store for every
//     unchanged cell and only explores what changed.
//
//   - With WithCampaignService, the whole campaign is submitted as one job
//     to an always-on `soft campaignd` coordinator and the canonical
//     report is fetched back — byte-identical to running it here.
//
// Cancelling ctx aborts the campaign with ctx's error (a partial campaign
// has no deterministic meaning). Options: WithMaxPaths, WithMaxDepth,
// WithModels, WithWorkers, WithBudget, WithStore,
// WithCodeVersion, WithFleetListener, WithShardDepth, WithLeaseTimeout,
// WithCrossCheck, WithCampaignService, WithTenant, WithScenarios,
// WithProgress, WithLogger.
func RunMatrix(ctx context.Context, agents, tests []string, opts ...Option) (*MatrixReport, error) {
	cfg := newConfig(opts)
	if len(agents) == 0 {
		agents = Agents()
	}
	if len(tests) == 0 {
		for _, t := range Tests() {
			tests = append(tests, t.Name)
		}
	}
	if len(cfg.scenarios) > 0 {
		// Scenario columns ride the tests axis: cells become
		// agent × test∪scenario, and every downstream layer (store,
		// fleet, campaign service) schedules them identically.
		tests = append(append([]string(nil), tests...), cfg.scenarios...)
	}
	if cfg.campaignURL != "" {
		return runMatrixRemote(ctx, cfg, agents, tests)
	}
	o := sched.Options{
		MaxPaths:    cfg.maxPaths,
		MaxDepth:    cfg.maxDepth,
		Models:      cfg.models,
		Workers:     cfg.workers,
		ShardDepth:  cfg.shardDepth,
		CodeVersion: cfg.codeVersion,
		CrossCheck:  !cfg.noCrossCheck,
		Budget:      cfg.budget,
		Logger:      cfg.logger,
	}
	if cfg.storeDir != "" {
		st, err := store.Open(cfg.storeDir)
		if err != nil {
			if cfg.fleetLn != nil {
				// The campaign owns the listener from the moment it is
				// handed over; close it on every failure path too.
				cfg.fleetLn.Close()
			}
			return nil, err
		}
		o.Store = st
	}
	if cfg.fleetLn != nil {
		fleet := dist.NewFleet(cfg.fleetLn, dist.FleetConfig{
			LeaseTimeout: cfg.leaseTimeout,
			Logger:       cfg.logger,
		})
		defer fleet.Close()
		o.Fleet = fleet
	}
	if cfg.progress != nil {
		progress := cfg.progress
		o.Progress = func(done, total int) {
			progress(Event{Phase: PhaseMatrix, Done: done, Total: total})
		}
	}
	return sched.RunMatrix(ctx, agents, tests, o)
}

// GroupCached is GroupSerialized backed by the campaign result store: the
// §4.2 BalancedOr grouping construction — the remaining phase-2 hot spot —
// is cached in storeDir keyed by (result content hash, code version), so
// repeated crosschecks of the same results file under the same code skip
// it. The returned flag reports a cache hit. Grouping is a pure function
// of the result bytes and the grouping code, so a cached construction is
// identical to a fresh one.
//
// codeVersion must match what populated the store — pass the same value
// used with WithCodeVersion, or "" for this binary's CodeVersion(). Like
// the result cache, unstamped dev builds all report "unversioned"; pin an
// explicit version when multiple binaries share a store.
func GroupCached(storeDir, codeVersion string, r *SerializedResult) (*Grouped, bool, error) {
	st, err := store.Open(storeDir)
	if err != nil {
		return nil, false, err
	}
	hash, err := store.ResultHash(r)
	if err != nil {
		return nil, false, err
	}
	if codeVersion == "" {
		codeVersion = store.DefaultCodeVersion()
	}
	if g, ok, err := st.GetGroups(hash, codeVersion); err != nil {
		return nil, false, err
	} else if ok {
		return g, true, nil
	}
	g := GroupSerialized(r)
	if err := st.PutGroups(hash, codeVersion, g); err != nil {
		return nil, false, err
	}
	return g, false, nil
}
