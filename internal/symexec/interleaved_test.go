package symexec

import (
	"fmt"
	"testing"

	"github.com/soft-testing/soft/internal/coverage"
)

// TestInterleavedPopOrder pins the interleaved frontier's pop order for a
// fixed seed: alternating coverage-optimized and random picks over one item
// set, with coverage growing mid-run. The literal was recorded from the
// two-view implementation this one replaced, so one-worker explorations
// (and their truncated results) keep their order. workerSeed keeps the
// base seed for worker 0, so worker 0 of a run pops the same order.
func TestInterleavedPopOrder(t *testing.T) {
	for name, s := range map[string]*interleaved{
		"base":     newInterleaved(7),
		"worker-0": newInterleaved(workerSeed(7, 0)),
	} {
		t.Run(name, func(t *testing.T) { checkPopOrder(t, s) })
	}
}

func checkPopOrder(t *testing.T, s *interleaved) {
	m := coverage.NewMap()
	sites := make([]coverage.BranchID, 4)
	for i := range sites {
		sites[i] = m.BranchSite(fmt.Sprintf("b%d", i))
	}
	m.Seal()
	cov := m.NewSet()
	cov.CoverBranch(sites[0], true)
	cov.CoverBranch(sites[1], false)

	index := make(map[*workItem]int)
	push := func(n int) {
		for i := 0; i < n; i++ {
			id := len(index)
			it := &workItem{site: sites[id%len(sites)], dir: id%3 == 0}
			if id%5 == 4 {
				it.site = -1
			}
			index[it] = id
			s.Push(it)
		}
	}
	var got []int
	pop := func(n int) {
		for i := 0; i < n; i++ {
			it, ok := s.Pop(cov)
			if !ok {
				t.Fatalf("pop %d failed with Len %d", len(got), s.Len())
			}
			got = append(got, index[it])
		}
	}
	push(8)
	pop(3)
	cov.CoverBranch(sites[2], true)
	cov.CoverBranch(sites[3], false)
	push(6)
	pop(5)
	cov.CoverBranch(sites[0], false)
	push(4)
	pop(s.Len())
	if _, ok := s.Pop(cov); ok {
		t.Fatal("pop succeeded on an empty frontier")
	}
	want := []int{2, 7, 3, 0, 8, 13, 10, 4, 15, 11, 12, 6, 1, 16, 17, 14, 5, 9}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("pop order %v, want %v", got, want)
	}
}
