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
// strategies here mirror the ones Cloud9 offers. Push takes the engine's
// unexported work item, so only this package's strategies implement the
// interface.
//
// ForWorker returns a fresh instance for worker w's local frontier (the
// engine's shared pool handles stealing). Randomized strategies derive a
// deterministic per-worker seed, and ForWorker(0) keeps the base seed, so a
// one-worker run pops exactly the configured strategy's order (the final
// result order is canonical regardless — see doc.go).
type Strategy interface {
	Push(*workItem)
	Pop(cov *coverage.Set) (*workItem, bool)
	Len() int
	Name() string
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
	return popRandom(&s.items, s.rng), true
}

// popRandom removes and returns a uniformly random item of the non-empty
// *items, moving the last item into its slot.
func popRandom(items *[]*workItem, rng *rand.Rand) *workItem {
	s := *items
	i := rng.Intn(len(s))
	it := s[i]
	last := len(s) - 1
	s[i] = s[last]
	s[last] = nil
	*items = s[:last]
	return it
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
	return popUncovered(&s.items, cov), true
}

// popUncovered removes and returns the first item of the non-empty *items
// whose flipped branch direction cov does not cover yet, or the first item
// when there is none (or no coverage), keeping the rest in order.
func popUncovered(items *[]*workItem, cov *coverage.Set) *workItem {
	s := *items
	pick := 0
	if cov != nil {
		for i, it := range s {
			if it.site >= 0 && !cov.BranchDirCovered(it.site, it.dir) {
				pick = i
				break
			}
		}
	}
	it := s[pick]
	copy(s[pick:], s[pick+1:])
	s[len(s)-1] = nil
	*items = s[:len(s)-1]
	return it
}

// interleaved alternates between random path selection and
// coverage-optimized selection — the Cloud9 default strategy the paper uses
// (§4.1: "an interleaving of a random path choice and a strategy that aims
// to improve coverage") — over one set of pending items.
type interleaved struct {
	items []*workItem
	rng   *rand.Rand
	seed  int64
	flip  bool
}

// NewInterleaved returns the Cloud9-style interleaved strategy. The first
// pop is coverage-optimized, the next random, and so on.
func NewInterleaved(seed int64) Strategy {
	return &interleaved{rng: rand.New(rand.NewSource(seed)), seed: seed}
}

func (s *interleaved) Name() string             { return "interleaved" }
func (s *interleaved) ForWorker(w int) Strategy { return NewInterleaved(workerSeed(s.seed, w)) }
func (s *interleaved) Len() int                 { return len(s.items) }
func (s *interleaved) Push(it *workItem)        { s.items = append(s.items, it) }
func (s *interleaved) Pop(cov *coverage.Set) (*workItem, bool) {
	if len(s.items) == 0 {
		return nil, false
	}
	s.flip = !s.flip
	if s.flip {
		return popUncovered(&s.items, cov), true
	}
	return popRandom(&s.items, s.rng), true
}
