package symexec

import "sync"

// canonCut implements canonical MaxPaths truncation (Engine.CanonicalCut):
// instead of keeping the first N paths that happen to complete — a set that
// depends on the interleaved order and, with several workers, on
// scheduling — it keeps the N canonically smallest completed paths
// (lexicographic decision-prefix order, false before true). That set is a
// pure function of the execution tree, so truncated runs become
// reproducible across worker counts and across distributed process layouts.
//
// The tracker doubles as a pruning oracle. Decision-vector order is
// subtree-monotone: every path below an unexplored prefix q sorts after q,
// and q compares to any vector outside its subtree exactly as its paths do.
// So once N paths at or below some bound have completed, a pending prefix
// that sorts after the current N-th smallest path can never contribute —
// the engine drops it without executing it, which is what makes a
// canonically truncated run terminate without exploring the whole tree.
//
// One mutex guards the tracker. It is taken once per frontier pop and once
// per completed path — both dwarfed by path execution — so sharing it
// between workers costs nothing measurable.
type canonCut struct {
	mu sync.Mutex
	// cap is the MaxPaths bound; kept holds at most cap paths as a binary
	// max-heap ordered by decision vector (largest at the root), so the
	// eviction candidate is O(1) away.
	cap     int
	kept    []*Path
	dropped bool // a completed path or a whole subtree was discarded
}

func newCanonCut(cap int) *canonCut { return &canonCut{cap: cap} }

// prune reports whether the subtree below the pending prefix d cannot
// contribute to the canonical cut: the tracker is full and d sorts after
// the current largest kept path. A true return records that exploration was
// truncated.
func (c *canonCut) prune(d []bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.kept) < c.cap {
		return false
	}
	if LessDecisions(c.kept[0].Decisions, d) {
		c.dropped = true
		return true
	}
	return false
}

// admit offers a completed path. When the tracker is full, the larger of
// (new path, current maximum) is discarded, so admit is monotone: the kept
// set only ever gets canonically smaller.
func (c *canonCut) admit(p *Path) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.kept) < c.cap {
		c.kept = append(c.kept, p)
		c.up(len(c.kept) - 1)
		return
	}
	c.dropped = true
	if LessDecisions(p.Decisions, c.kept[0].Decisions) {
		c.kept[0] = p
		c.down(0)
	}
}

// paths returns the kept set (heap order; the caller canonicalizes) and
// whether anything was discarded along the way.
func (c *canonCut) paths() (kept []*Path, truncated bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.kept, c.dropped
}

// up and down restore the max-heap property (LessDecisions order, largest
// decision vector at index 0).
func (c *canonCut) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !LessDecisions(c.kept[parent].Decisions, c.kept[i].Decisions) {
			return
		}
		c.kept[parent], c.kept[i] = c.kept[i], c.kept[parent]
		i = parent
	}
}

func (c *canonCut) down(i int) {
	n := len(c.kept)
	for {
		largest := i
		for _, child := range []int{2*i + 1, 2*i + 2} {
			if child < n && LessDecisions(c.kept[largest].Decisions, c.kept[child].Decisions) {
				largest = child
			}
		}
		if largest == i {
			return
		}
		c.kept[i], c.kept[largest] = c.kept[largest], c.kept[i]
		i = largest
	}
}
