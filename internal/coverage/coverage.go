// Package coverage implements the instrumentation registry SOFT uses to
// report instruction and branch coverage (Table 4, Figure 4, Table 5 of the
// paper).
//
// The paper measures coverage with Cloud9 over compiled C code. Our agents
// are behavioral models, so coverage is declared instead of discovered: each
// agent registers, once, the basic blocks of its message-processing code
// (with an instruction-count weight, standing in for LLVM instructions) and
// its branch sites. During symbolic execution every explored path marks the
// blocks it passes through and the branch directions it takes; per-test
// coverage is the union over all paths. The percentages reported are
// covered-instruction-weight / total and covered-branch-direction / (2 ×
// sites), the same definitions Cloud9 reports.
package coverage

import (
	"fmt"
	"sort"
	"sync"
)

// BlockID identifies a registered basic block within its Map.
type BlockID int32

// BranchID identifies a registered branch site within its Map.
type BranchID int32

type block struct {
	name  string
	instr int
}

// Map is an agent's static coverage universe: every block and branch site
// the agent's OpenFlow-processing code can reach. A Map is built once at
// agent construction and is read-only afterwards, so it is safe to share
// across concurrent runs.
type Map struct {
	mu       sync.Mutex
	sealed   bool
	blocks   []block
	branches []string
	byName   map[string]BlockID
	brByName map[string]BranchID
	total    int
}

// NewMap creates an empty coverage universe.
func NewMap() *Map {
	return &Map{
		byName:   make(map[string]BlockID),
		brByName: make(map[string]BranchID),
	}
}

// Block registers a basic block with an instruction-count weight and
// returns its ID. Registering the same name twice returns the original ID
// (the weight must match).
func (m *Map) Block(name string, instr int) BlockID {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.sealed {
		panic("coverage: Block registered after sealing")
	}
	if id, ok := m.byName[name]; ok {
		if m.blocks[id].instr != instr {
			panic(fmt.Sprintf("coverage: block %q re-registered with weight %d != %d", name, instr, m.blocks[id].instr))
		}
		return id
	}
	id := BlockID(len(m.blocks))
	m.blocks = append(m.blocks, block{name: name, instr: instr})
	m.byName[name] = id
	m.total += instr
	return id
}

// BranchSite registers a two-way branch site and returns its ID.
func (m *Map) BranchSite(name string) BranchID {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.sealed {
		panic("coverage: BranchSite registered after sealing")
	}
	if id, ok := m.brByName[name]; ok {
		return id
	}
	id := BranchID(len(m.branches))
	m.branches = append(m.branches, name)
	m.brByName[name] = id
	return id
}

// Seal freezes the universe; further registration panics. Sealing is
// optional but catches agents that register lazily (which would skew
// percentages between runs).
func (m *Map) Seal() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sealed = true
}

// TotalInstructions returns the summed weight of all registered blocks.
func (m *Map) TotalInstructions() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.total
}

// NewSet creates an empty per-run coverage set over this universe.
func (m *Map) NewSet() *Set {
	return &Set{
		m:        m,
		blocks:   make([]bool, len(m.blocks)),
		branches: make([]uint8, len(m.branches)),
	}
}

// Set records which blocks and branch directions one or more runs covered.
// A Set is not safe for concurrent mutation.
type Set struct {
	m        *Map
	blocks   []bool
	branches []uint8 // bit 0: taken-true covered; bit 1: taken-false covered
}

// CoverBlock marks a block as executed.
func (s *Set) CoverBlock(id BlockID) {
	if int(id) < len(s.blocks) {
		s.blocks[id] = true
	}
}

// CoverBranch marks one direction of a branch site as taken.
func (s *Set) CoverBranch(id BranchID, taken bool) {
	if int(id) >= len(s.branches) {
		return
	}
	if taken {
		s.branches[id] |= 1
	} else {
		s.branches[id] |= 2
	}
}

// BranchDirCovered reports whether the given direction of a branch site has
// been covered. The engine's coverage-optimized pops use it to prioritize
// pending paths.
func (s *Set) BranchDirCovered(id BranchID, taken bool) bool {
	if int(id) >= len(s.branches) {
		return false
	}
	if taken {
		return s.branches[id]&1 != 0
	}
	return s.branches[id]&2 != 0
}

// Merge unions other into s. The sets must share a Map.
func (s *Set) Merge(other *Set) {
	if other == nil {
		return
	}
	if s.m != other.m {
		panic("coverage: Merge across different maps")
	}
	for i, b := range other.blocks {
		if b {
			s.blocks[i] = true
		}
	}
	for i, d := range other.branches {
		s.branches[i] |= d
	}
}

// Snapshot returns copies of the covered-block and branch-direction
// bitmaps, indexed by BlockID and BranchID. Because agents register their
// coverage universe deterministically at construction, the same agent
// produces identically laid-out Maps in every process — which is what lets
// a distributed worker ship a Snapshot over the wire and a coordinator
// union it back in with MergeBitmap.
func (s *Set) Snapshot() (blocks []bool, branches []uint8) {
	blocks = append([]bool(nil), s.blocks...)
	branches = append([]uint8(nil), s.branches...)
	return blocks, branches
}

// MergeBitmap unions raw coverage bitmaps (a Snapshot taken from a Set over
// an identically laid-out Map, typically in another process) into s. It
// rejects bitmaps whose dimensions do not match this universe — the symptom
// of two processes running different agent versions.
func (s *Set) MergeBitmap(blocks []bool, branches []uint8) error {
	if len(blocks) != len(s.blocks) || len(branches) != len(s.branches) {
		return fmt.Errorf("coverage: bitmap dimensions %d/%d do not match universe %d/%d",
			len(blocks), len(branches), len(s.blocks), len(s.branches))
	}
	for i, b := range blocks {
		if b {
			s.blocks[i] = true
		}
	}
	for i, d := range branches {
		s.branches[i] |= d
	}
	return nil
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	c := s.m.NewSet()
	c.Merge(s)
	return c
}

// CoveredInstructions returns the summed weight of covered blocks.
func (s *Set) CoveredInstructions() int {
	sum := 0
	for i, b := range s.blocks {
		if b {
			sum += s.m.blocks[i].instr
		}
	}
	return sum
}

// CoveredBranchDirections returns the number of covered branch directions
// (each site contributes up to 2).
func (s *Set) CoveredBranchDirections() int {
	n := 0
	for _, d := range s.branches {
		n += int(d&1) + int(d>>1&1)
	}
	return n
}

// InstructionPct returns covered instruction weight as a percentage of the
// universe total.
func (s *Set) InstructionPct() float64 {
	if s.m.total == 0 {
		return 0
	}
	return 100 * float64(s.CoveredInstructions()) / float64(s.m.total)
}

// BranchPct returns covered branch directions as a percentage of 2 × sites.
func (s *Set) BranchPct() float64 {
	if len(s.branches) == 0 {
		return 0
	}
	return 100 * float64(s.CoveredBranchDirections()) / float64(2*len(s.branches))
}

// UncoveredBlocks lists the names of blocks no run has reached, sorted.
func (s *Set) UncoveredBlocks() []string {
	var out []string
	for i, b := range s.blocks {
		if !b {
			out = append(out, s.m.blocks[i].name)
		}
	}
	sort.Strings(out)
	return out
}
