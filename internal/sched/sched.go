package sched

import (
	"context"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"time"

	"github.com/soft-testing/soft/internal/agents"
	"github.com/soft-testing/soft/internal/crosscheck"
	"github.com/soft-testing/soft/internal/dist"
	"github.com/soft-testing/soft/internal/group"
	"github.com/soft-testing/soft/internal/harness"
	"github.com/soft-testing/soft/internal/obs"
	"github.com/soft-testing/soft/internal/solver"
	"github.com/soft-testing/soft/internal/store"
)

// Options tunes a campaign run.
type Options struct {
	// MaxPaths/MaxDepth/Models are the engine configuration every cell
	// shares (zero limits take the harness defaults). Campaign explorations
	// always use the canonical MaxPaths cut, so truncated cells are
	// byte-identical across layouts too.
	MaxPaths int
	MaxDepth int
	Models   bool
	// Deprecated: ignored; exploration always uses per-worker sessions.
	Incremental bool

	// Workers is the in-process parallelism: exploration workers for
	// fleetless cells, solver workers for the crosscheck phase (0 =
	// GOMAXPROCS).
	Workers int

	// Fleet, when set, runs every non-cached cell as a job on this
	// persistent worker fleet; nil explores in-process.
	Fleet *dist.Fleet
	// ShardDepth configures fleet jobs (see dist.JobConfig).
	ShardDepth int

	// Store, when set, caches cell results; CodeVersion pins the code
	// component of the cache key (default store.DefaultCodeVersion()).
	Store       *store.Store
	CodeVersion string

	// CrossCheck runs phase 2 over every agent pair per test. (The
	// explore-only mode still populates the store.)
	CrossCheck bool
	// Budget bounds each pair's crosscheck wall-clock time (0 =
	// unlimited). A non-zero budget can mark checks partial, which breaks
	// run-to-run byte-identity; leave it zero when comparing reports.
	Budget time.Duration

	// Progress, when set, is called after each completed cell and each
	// completed pair check with (done, total) counts over cells + checks.
	Progress func(done, total int)
	// Logger, when set, receives one structured line per cell and check,
	// carrying agent/test (or agent_a/agent_b/test) attributes. Nil
	// discards them.
	Logger *slog.Logger
}

// Cell is one (agent, test) entry of the campaign matrix.
type Cell struct {
	Agent string
	Test  string
	// Result is the cell's phase-1 result — cached or freshly explored,
	// the bytes are identical. Its run counters count the exploration work
	// (zero for cache hits — that is the point). It is nil in reports
	// parsed back from the canonical format (ReadReport), which carries
	// only the summary below.
	Result *harness.Result
	// ResultHash is the content address of Result (wall clock excluded).
	ResultHash string
	// Paths/Truncated/InstrPct/BranchPct summarize Result — the canonical
	// report surface, valid whether or not Result itself is present.
	Paths               int
	Truncated           bool
	InstrPct, BranchPct float64
	// CacheHit reports the result came from the store.
	CacheHit bool
	Elapsed  time.Duration
}

// PairCheck is one crosscheck — two agents compared on one test.
type PairCheck struct {
	Test   string
	AgentA string
	AgentB string
	Report *crosscheck.Report
	// RootCauses is Report.RootCauses() captured at check time: the
	// distinct-template estimate survives canonical serialization even
	// though the templates themselves are not written.
	RootCauses int
	// GroupsA/GroupsB are the two sides' distinct-behavior counts.
	GroupsA, GroupsB int
}

// Report is the campaign outcome: per-cell results, aggregated crosscheck
// findings, and fleet/solver/cache statistics. Write renders the canonical
// machine-readable form.
type Report struct {
	Agents []string
	Tests  []string
	// Cells is agent-major: Cells[a*len(Tests)+t].
	Cells []Cell
	// Checks holds one entry per (test, unordered agent pair), test-major,
	// pairs in agent order.
	Checks []PairCheck

	// CacheHits/CacheMisses count cell-result store lookups.
	CacheHits, CacheMisses int

	// FleetStats snapshots the fleet's lifecycle counters at campaign end
	// (nil for fleetless runs).
	FleetStats *dist.FleetStats
	// SolverStats aggregates the solver work across every fresh
	// exploration and every crosscheck; BranchQueries the explorations'
	// frontier feasibility queries.
	SolverStats   solver.Stats
	BranchQueries int64
	Elapsed       time.Duration
}

// CellAt returns the cell for (agent, test), nil if absent.
func (r *Report) CellAt(agent, test string) *Cell {
	for i := range r.Cells {
		if r.Cells[i].Agent == agent && r.Cells[i].Test == test {
			return &r.Cells[i]
		}
	}
	return nil
}

// Inconsistencies sums discovered behavioral differences across checks.
func (r *Report) Inconsistencies() int {
	n := 0
	for i := range r.Checks {
		n += len(r.Checks[i].Report.Inconsistencies)
	}
	return n
}

// RunMatrix runs the campaign: every (agent, test) cell is explored (or
// served from the store), then — with Options.CrossCheck — every agent
// pair is crosschecked on every test. Cells and checks are deterministic:
// two full campaign runs of the same binary and configuration produce
// byte-identical Report.Write output, whether cells came from the fleet,
// from in-process exploration, or from the store.
//
// Agent and test names must be non-empty, known, and duplicate-free;
// cancelling ctx aborts the campaign with ctx's error.
func RunMatrix(ctx context.Context, agentNames, testNames []string, o Options) (*Report, error) {
	if len(agentNames) == 0 {
		return nil, fmt.Errorf("sched: no agents given")
	}
	if len(testNames) == 0 {
		return nil, fmt.Errorf("sched: no tests given")
	}
	seen := map[string]bool{}
	for _, a := range agentNames {
		if _, err := agents.ByName(a); err != nil {
			return nil, fmt.Errorf("sched: %w", err)
		}
		if seen["a:"+a] {
			return nil, fmt.Errorf("sched: duplicate agent %q", a)
		}
		seen["a:"+a] = true
	}
	// Definition hashes of scenario-backed tests (empty for the built-in
	// suite), captured once at validation and folded into the store keys
	// below so an edited scenario definition misses the cache.
	defHash := make(map[string]string, len(testNames))
	for _, t := range testNames {
		ht, ok := harness.TestByName(t)
		if !ok {
			return nil, fmt.Errorf("sched: unknown test %q", t)
		}
		if seen["t:"+t] {
			return nil, fmt.Errorf("sched: duplicate test %q", t)
		}
		seen["t:"+t] = true
		defHash[t] = ht.DefHash
	}
	if o.MaxPaths == 0 {
		o.MaxPaths = harness.DefaultMaxPaths
	}
	if o.MaxDepth == 0 {
		o.MaxDepth = harness.DefaultMaxDepth
	}
	if o.CodeVersion == "" {
		o.CodeVersion = store.DefaultCodeVersion()
	}
	start := time.Now()

	rep := &Report{
		Agents: append([]string(nil), agentNames...),
		Tests:  append([]string(nil), testNames...),
		Cells:  make([]Cell, len(agentNames)*len(testNames)),
	}
	nPairs := len(agentNames) * (len(agentNames) - 1) / 2
	totalWork := len(rep.Cells)
	if o.CrossCheck {
		totalWork += nPairs * len(testNames)
	}
	var doneWork int
	var progressMu sync.Mutex
	step := func() {
		if o.Progress == nil {
			return
		}
		progressMu.Lock()
		doneWork++
		d := doneWork
		progressMu.Unlock()
		o.Progress(d, totalWork)
	}
	log := o.Logger
	if log == nil {
		log = obs.NopLogger()
	}
	log = log.With("component", "sched")

	// Phase 1: the cells. With a fleet, all cells run concurrently as jobs
	// and the fleet interleaves their shards over the shared workers;
	// fleetless cells run sequentially (the engine parallelizes inside a
	// cell via Workers). Either way the results are byte-identical.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var firstErr error
	var errMu sync.Mutex
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		errMu.Unlock()
	}
	runCell := func(ai, ti int) {
		cell := &rep.Cells[ai*len(testNames)+ti]
		cell.Agent = agentNames[ai]
		cell.Test = testNames[ti]
		sp := obs.StartSpan("cell:" + cell.Agent + "/" + cell.Test)
		defer sp.End()
		cellStart := time.Now()

		key := store.Key{
			Agent: cell.Agent, Test: cell.Test, CodeVersion: o.CodeVersion,
			Scenario: defHash[cell.Test],
			Config: store.Config{
				MaxPaths: o.MaxPaths, MaxDepth: o.MaxDepth,
				Models: o.Models, CanonicalCut: true,
			},
		}
		if o.Store != nil {
			res, ok, err := o.Store.GetResult(key)
			if err != nil {
				// A corrupt or unreadable entry is a miss, not a campaign
				// failure: re-explore and overwrite it (PutResult is
				// atomic), per the store's self-healing contract.
				log.Warn("cell cache entry unreadable (re-exploring)",
					"agent", cell.Agent, "test", cell.Test, "err", err)
			}
			if ok {
				cell.Result = res
				cell.CacheHit = true
				cell.Elapsed = time.Since(cellStart)
				log.Info("cell cached", "agent", cell.Agent, "test", cell.Test, "paths", len(res.Paths))
				return
			}
		}

		if o.Fleet != nil {
			res, err := o.Fleet.Run(runCtx, dist.JobConfig{
				AgentName: cell.Agent, TestName: cell.Test,
				MaxPaths: o.MaxPaths, MaxDepth: o.MaxDepth,
				WantModels: o.Models,
				ShardDepth: o.ShardDepth,
			})
			if err != nil {
				fail(err)
				return
			}
			cell.Result = res
		} else {
			agent, err := agents.ByName(cell.Agent)
			if err != nil {
				fail(err)
				return
			}
			test, _ := harness.TestByName(cell.Test)
			res := harness.ExploreContext(runCtx, agent, test, harness.Options{
				MaxPaths: o.MaxPaths, MaxDepth: o.MaxDepth,
				WantModels: o.Models, CanonicalCut: true, Workers: o.Workers,
			})
			if res.Cancelled || runCtx.Err() != nil {
				// A cancelled cell is not a result; the campaign aborts (a
				// partial matrix has no deterministic meaning).
				fail(context.Cause(runCtx))
				return
			}
			cell.Result = res
		}
		cell.Elapsed = time.Since(cellStart)
		// Store before logging: a "cell explored" line means the cell is
		// durable, so a campaign killed after it resumes with the cell cached.
		if o.Store != nil {
			if err := o.Store.PutResult(key, cell.Result); err != nil {
				fail(err)
				return
			}
		}
		log.Info("cell explored", "agent", cell.Agent, "test", cell.Test,
			"paths", len(cell.Result.Paths), "elapsed", cell.Elapsed.Round(time.Millisecond))
	}

	if o.Fleet != nil {
		// Bound concurrent jobs: each fleet job runs its frontier split in
		// this process, so unbounded fan-out would stampede the coordinator.
		sem := make(chan struct{}, runtime.GOMAXPROCS(0))
		var wg sync.WaitGroup
		for ai := range agentNames {
			for ti := range testNames {
				wg.Add(1)
				sem <- struct{}{}
				go func(ai, ti int) {
					defer func() { <-sem; wg.Done() }()
					runCell(ai, ti)
					step()
				}(ai, ti)
			}
		}
		wg.Wait()
	} else {
		for ai := range agentNames {
			for ti := range testNames {
				runCell(ai, ti)
				step()
			}
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i := range rep.Cells {
		cell := &rep.Cells[i]
		hash, err := store.ResultHash(cell.Result)
		if err != nil {
			return nil, err
		}
		cell.ResultHash = hash
		cell.Paths = len(cell.Result.Paths)
		cell.Truncated = cell.Result.Truncated
		cell.InstrPct = cell.Result.InstrPct
		cell.BranchPct = cell.Result.BranchPct
		if cell.CacheHit {
			rep.CacheHits++
		} else {
			rep.CacheMisses++
		}
		// A cached result's counters read zero, so this sums the fresh
		// cells' work.
		rep.SolverStats.Add(cell.Result.SolverStats)
		rep.BranchQueries += cell.Result.BranchQueries
	}

	// Phase 2: crosscheck every agent pair on every test. Groupings are
	// built once per cell, in memory;
	// checks run with parallel solver workers but are deterministic — a
	// full parallel report is identical to a sequential one.
	if o.CrossCheck {
		grouped := make([]*group.Result, len(rep.Cells))
		groupsFor := func(i int) *group.Result {
			if grouped[i] == nil {
				grouped[i] = group.Paths(rep.Cells[i].Result)
			}
			return grouped[i]
		}
		for ti, test := range testNames {
			for ai := 0; ai < len(agentNames); ai++ {
				for bi := ai + 1; bi < len(agentNames); bi++ {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
					ia, ib := ai*len(testNames)+ti, bi*len(testNames)+ti
					ga, gb := groupsFor(ia), groupsFor(ib)
					csp := obs.StartSpan("crosscheck:" + test + ":" + agentNames[ai] + "-vs-" + agentNames[bi])
					check := crosscheck.RunOpts(ctx, ga, gb, crosscheck.Opts{
						Budget:  o.Budget,
						Workers: o.Workers,
					})
					csp.End()
					if check.Cancelled {
						return nil, ctx.Err()
					}
					rep.Checks = append(rep.Checks, PairCheck{
						Test: test, AgentA: agentNames[ai], AgentB: agentNames[bi],
						Report:     check,
						RootCauses: check.RootCauses(),
						GroupsA:    len(ga.Groups), GroupsB: len(gb.Groups),
					})
					rep.SolverStats.Add(check.SolverStats)
					log.Info("check done",
						"test", test, "agent_a", agentNames[ai], "agent_b", agentNames[bi],
						"inconsistencies", len(check.Inconsistencies), "queries", check.Queries)
					step()
				}
			}
		}
	}

	if o.Fleet != nil {
		st := o.Fleet.Stats()
		rep.FleetStats = &st
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}
