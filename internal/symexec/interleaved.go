package symexec

import (
	"math/rand"

	"github.com/soft-testing/soft/internal/coverage"
)

// interleaved orders a worker's local frontier. It alternates between
// coverage-optimized and random selection over one set of pending items —
// the Cloud9 default the paper uses (§4.1: "an interleaving of a random
// path choice and a strategy that aims to improve coverage"). SOFT explores
// to exhaustion, so the order changes no exhaustive result (the final
// result order is canonical regardless — see doc.go); it decides how
// quickly coverage accumulates and which paths a MaxPaths truncation keeps.
type interleaved struct {
	items []*workItem
	rng   *rand.Rand
	flip  bool
}

// newInterleaved returns an empty frontier whose random picks follow seed.
// The first pop is coverage-optimized, the next random, and so on.
func newInterleaved(seed int64) *interleaved {
	return &interleaved{rng: rand.New(rand.NewSource(seed))}
}

// workerSeed spreads a base seed across workers; worker 0 keeps the base
// seed, so a one-worker run pops exactly the base seed's order.
func workerSeed(seed int64, w int) int64 { return seed + int64(w)*0x9e3779b9 }

func (s *interleaved) Len() int          { return len(s.items) }
func (s *interleaved) Push(it *workItem) { s.items = append(s.items, it) }

// Pop removes and returns the next item. cov is the worker's cumulative
// coverage (nil when the engine runs without a coverage universe); the
// coverage-optimized picks prefer items whose flipped branch direction it
// does not cover yet.
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
