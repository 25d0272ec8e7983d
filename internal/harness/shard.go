package harness

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"github.com/soft-testing/soft/internal/agents"
	"github.com/soft-testing/soft/internal/coverage"
	"github.com/soft-testing/soft/internal/symexec"
)

// This file implements the merge half of distributed exploration: a
// coordinator splits the frontier into decision-prefix subtrees
// (Options.ShardSink), workers explore each subtree (Options.Prefix), and
// MergeShards reassembles the per-shard outputs into exactly the result a
// single-process run would have produced. A shard is the Result a vendor
// would ship (§2.4) plus the two merge keys that never enter the results
// file: decision vectors and per-path coverage.

// Shard is one shard's contribution to a distributed exploration: the
// subtree's Result, whose run counters the merge sums, and its merge keys.
// Truncated reports that the shard's canonical MaxPaths cut discarded
// paths: the shard holds its MaxPaths canonically smallest.
type Shard struct {
	*Result
	// Decisions[i] is Paths[i]'s branch-decision vector; shard outputs are
	// merged by sorting all paths in canonical decision-prefix order.
	Decisions [][]bool
	// PathCov[i] is Paths[i]'s own coverage set (nil without a coverage
	// universe), so a canonically truncated merge can rebuild coverage
	// from exactly the kept paths.
	PathCov []*coverage.Set
	// Cov is the shard run's cumulative coverage (including attempts that
	// were depth-truncated inside the subtree); exhaustive merges union it.
	Cov *coverage.Set
}

// ExploreShard is ExploreContext keeping the merge keys: the dist worker
// explores its leased subtree with it, and the coordinator its frontier
// split.
func ExploreShard(ctx context.Context, a agents.Agent, t Test, o Options) *Shard {
	res, run := explore(ctx, a, t, o)
	sh := &Shard{
		Result:    res,
		Decisions: make([][]bool, len(run.Paths)),
		PathCov:   make([]*coverage.Set, len(run.Paths)),
		Cov:       run.Cov,
	}
	for i, p := range run.Paths {
		sh.Decisions[i] = p.Decisions
		sh.PathCov[i] = p.Cov
	}
	return sh
}

// MergeShards reassembles per-shard exploration outputs into one result.
// Shards must come from the same (agent, test) run configuration and cover
// disjoint decision-prefix subtrees (the coordinator's split guarantees
// both; re-leased duplicates must be dropped before merging). The merge is
// pure canonical bookkeeping:
//
//   - paths from all shards are sorted into canonical decision-prefix order
//     and re-numbered — the same canonicalization the engine applies;
//   - with maxPaths > 0, the merge keeps the maxPaths canonically smallest
//     paths: each shard already holds its own canonical cut, and the global
//     N smallest of a disjoint union are among the per-subtree N smallest,
//     so the cut composes exactly;
//   - coverage is the union of shard cumulative coverage for exhaustive
//     merges, or of exactly the kept paths' coverage for truncated ones
//     (matching symexec.Engine.CanonicalCut's single-process behavior).
//
// The caller stamps Elapsed on the returned result (wall-clock time is the
// coordinator's to measure).
func MergeShards(agent, test string, msgCount int, covMap *coverage.Map, shards []*Shard, maxPaths int) (*Result, error) {
	merged := &Result{Agent: agent, Test: test, MsgCount: msgCount}
	// keyed is one shard path with its merge keys.
	type keyed struct {
		p         *PathResult
		decisions []bool
		cov       *coverage.Set
	}
	var all []keyed
	truncated := false
	for _, sh := range shards {
		for i := range sh.Paths {
			all = append(all, keyed{&sh.Paths[i], sh.Decisions[i], sh.PathCov[i]})
		}
		truncated = truncated || sh.Truncated
		merged.Infeasible += sh.Infeasible
		merged.DepthTruncated += sh.DepthTruncated
		merged.BranchQueries += sh.BranchQueries
		merged.SolverStats.Add(sh.SolverStats)
	}
	sort.Slice(all, func(i, j int) bool {
		return symexec.LessDecisions(all[i].decisions, all[j].decisions)
	})
	for i := 1; i < len(all); i++ {
		if !symexec.LessDecisions(all[i-1].decisions, all[i].decisions) {
			return nil, fmt.Errorf("harness: shards overlap: duplicate path decision vector %v", all[i].decisions)
		}
	}
	if maxPaths > 0 && len(all) > maxPaths {
		all = all[:maxPaths]
		truncated = true
	}
	merged.Truncated = truncated

	if covMap != nil {
		cov := covMap.NewSet()
		// Shard sets come from other processes (or at least other agent
		// instances), so they never share covMap's identity; union them by
		// bitmap, which only requires the universes to be laid out
		// identically — guaranteed by deterministic agent registration and
		// checked here.
		union := func(s *coverage.Set) error {
			if s == nil {
				return nil
			}
			blocks, branches := s.Snapshot()
			return cov.MergeBitmap(blocks, branches)
		}
		var err error
		if truncated {
			for i := range all {
				err = errors.Join(err, union(all[i].cov))
			}
		} else {
			for _, sh := range shards {
				err = errors.Join(err, union(sh.Cov))
			}
		}
		if err != nil {
			return nil, err
		}
		merged.InstrPct = cov.InstructionPct()
		merged.BranchPct = cov.BranchPct()
	}

	merged.Paths = make([]PathResult, len(all))
	for i := range all {
		merged.Paths[i] = *all[i].p
		merged.Paths[i].ID = i
	}
	return merged, nil
}
