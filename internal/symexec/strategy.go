package symexec

import (
	"math/rand"

	"github.com/soft-testing/soft/internal/coverage"
)

// Strategy orders pending paths. Pop receives the cumulative coverage so
// far (nil when the engine runs without a coverage universe) so that
// coverage-guided strategies can prioritize uncovered branch directions.
//
// The paper (§4.1) observes that because SOFT drives exploration to
// exhaustion, the choice of strategy has little effect on the final result;
// it matters for how quickly coverage accumulates and for partial runs. The
// strategies here mirror the ones Cloud9 offers.
type Strategy interface {
	Push(*workItem)
	Pop(cov *coverage.Set) (*workItem, bool)
	Len() int
	Name() string
}

// WorkerStrategy is a Strategy that can spawn independent per-worker
// instances for parallel exploration: worker w orders its local frontier
// with ForWorker(w) while the engine's shared pool handles stealing. All
// built-in strategies implement it. Randomized strategies derive a
// deterministic per-worker seed, keeping each worker's local order
// reproducible (the final result order is canonical regardless — see
// doc.go).
type WorkerStrategy interface {
	Strategy
	ForWorker(w int) Strategy
}

// workerSeed spreads a base seed across workers.
func workerSeed(seed int64, w int) int64 { return seed + int64(w)*0x9e3779b9 }

// dfs explores depth-first (LIFO).
type dfs struct{ items []*workItem }

// NewDFS returns a depth-first (LIFO) strategy.
func NewDFS() Strategy { return &dfs{} }

func (s *dfs) Name() string           { return "dfs" }
func (s *dfs) ForWorker(int) Strategy { return NewDFS() }
func (s *dfs) Len() int               { return len(s.items) }
func (s *dfs) Push(it *workItem)      { s.items = append(s.items, it) }
func (s *dfs) Pop(*coverage.Set) (*workItem, bool) {
	if len(s.items) == 0 {
		return nil, false
	}
	it := s.items[len(s.items)-1]
	s.items = s.items[:len(s.items)-1]
	return it, true
}

// bfs explores breadth-first (FIFO).
type bfs struct {
	items []*workItem
	head  int
}

// NewBFS returns a breadth-first (FIFO) strategy.
func NewBFS() Strategy { return &bfs{} }

func (s *bfs) Name() string           { return "bfs" }
func (s *bfs) ForWorker(int) Strategy { return NewBFS() }
func (s *bfs) Len() int               { return len(s.items) - s.head }
func (s *bfs) Push(it *workItem)      { s.items = append(s.items, it) }
func (s *bfs) Pop(*coverage.Set) (*workItem, bool) {
	if s.head >= len(s.items) {
		return nil, false
	}
	it := s.items[s.head]
	s.items[s.head] = nil
	s.head++
	if s.head > 64 && s.head*2 > len(s.items) {
		s.items = append([]*workItem(nil), s.items[s.head:]...)
		s.head = 0
	}
	return it, true
}

// random picks a pending path uniformly at random (deterministic seed).
type random struct {
	items []*workItem
	rng   *rand.Rand
	seed  int64
}

// NewRandom returns a random-path strategy with the given seed. The same
// seed always yields the same exploration order.
func NewRandom(seed int64) Strategy {
	return &random{rng: rand.New(rand.NewSource(seed)), seed: seed}
}

func (s *random) Name() string             { return "random" }
func (s *random) ForWorker(w int) Strategy { return NewRandom(workerSeed(s.seed, w)) }
func (s *random) Len() int                 { return len(s.items) }
func (s *random) Push(it *workItem)        { s.items = append(s.items, it) }
func (s *random) Pop(*coverage.Set) (*workItem, bool) {
	if len(s.items) == 0 {
		return nil, false
	}
	i := s.rng.Intn(len(s.items))
	it := s.items[i]
	last := len(s.items) - 1
	s.items[i] = s.items[last]
	s.items = s.items[:last]
	return it, true
}

// covOpt prefers pending paths whose flipped branch direction is not yet
// covered, falling back to FIFO order.
type covOpt struct {
	items []*workItem
}

// NewCoverageOptimized returns a strategy that prioritizes paths leading
// into uncovered branch directions.
func NewCoverageOptimized() Strategy { return &covOpt{} }

func (s *covOpt) Name() string           { return "cov-opt" }
func (s *covOpt) ForWorker(int) Strategy { return NewCoverageOptimized() }
func (s *covOpt) Len() int               { return len(s.items) }
func (s *covOpt) Push(it *workItem)      { s.items = append(s.items, it) }
func (s *covOpt) Pop(cov *coverage.Set) (*workItem, bool) {
	if len(s.items) == 0 {
		return nil, false
	}
	pick := 0
	if cov != nil {
		for i, it := range s.items {
			if it.site >= 0 && !covHasDir(cov, it.site, it.dir) {
				pick = i
				break
			}
		}
	}
	it := s.items[pick]
	s.items = append(s.items[:pick], s.items[pick+1:]...)
	return it, true
}

// interleaved alternates between random path selection and
// coverage-optimized selection — the Cloud9 default strategy the paper uses
// (§4.1: "an interleaving of a random path choice and a strategy that aims
// to improve coverage").
type interleaved struct {
	rnd  *random
	cov  *covOpt
	flip bool
}

// NewInterleaved returns the Cloud9-style interleaved strategy.
func NewInterleaved(seed int64) Strategy {
	return &interleaved{
		rnd: &random{rng: rand.New(rand.NewSource(seed)), seed: seed},
		cov: &covOpt{},
	}
}

func (s *interleaved) Name() string { return "interleaved" }
func (s *interleaved) ForWorker(w int) Strategy {
	return NewInterleaved(workerSeed(s.rnd.seed, w))
}

// Len reports the single backing store's length. (s.rnd.items is a stale
// alias of it between random pops and must not be counted: the parallel
// engine's rebalance and leftover accounting rely on an exact Len.)
func (s *interleaved) Len() int { return len(s.cov.items) }
func (s *interleaved) Push(it *workItem) {
	// Keep one backing store; alternate which view pops.
	s.cov.items = append(s.cov.items, it)
}
func (s *interleaved) Pop(cov *coverage.Set) (*workItem, bool) {
	if len(s.cov.items) == 0 {
		return nil, false
	}
	s.flip = !s.flip
	if s.flip {
		return s.cov.Pop(cov)
	}
	// Random pop over the shared store.
	s.rnd.items = s.cov.items
	it, ok := s.rnd.Pop(cov)
	s.cov.items = s.rnd.items
	return it, ok
}

// covHasDir reports whether the direction dir of branch site is covered.
func covHasDir(cov *coverage.Set, site coverage.BranchID, dir bool) bool {
	// coverage.Set does not export per-direction lookup; probe via a clone
	// merge trick is wasteful, so we extend coverage with a query method.
	return cov.BranchDirCovered(site, dir)
}
