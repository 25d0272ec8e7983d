package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the fixed bucket count: bucket i holds observations v
// with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i), with v == 0 in
// bucket 0. A non-negative int64 always lands in [0, 63].
const histBuckets = 64

// Histogram is a fixed-layout power-of-two histogram. Observe is two
// atomic adds; there is no configuration and no locking. One type serves
// nanosecond latencies, frontier depths, and byte counts — the unit is
// part of the metric name (_ns, _depth, _bytes).
type Histogram struct {
	counts [histBuckets]atomic.Int64
	sum    atomic.Int64
}

// bucketOf returns the bucket index for v (negative values clamp to 0).
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// BucketBound returns the inclusive upper bound of bucket i (2^i - 1).
func BucketBound(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 63 {
		return 1<<63 - 1
	}
	return 1<<i - 1
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)].Add(1)
	h.sum.Add(v)
}

// ObserveSince records the nanoseconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(int64(time.Since(start)))
}

// Snapshot returns a consistent-enough copy for exposition and diffing.
// (Buckets are read one by one; a concurrent Observe may straddle the
// reads, which is fine for monitoring data.)
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Sum = h.sum.Load()
	return s
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
type HistogramSnapshot struct {
	Counts [histBuckets]int64
	Sum    int64
}

// Count returns the total number of observations in the snapshot.
func (s HistogramSnapshot) Count() int64 {
	var n int64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// Sub returns the per-bucket difference s - earlier: the observations made
// between the two snapshots. Diffing is what turns the process-global
// histogram into a per-run one.
func (s HistogramSnapshot) Sub(earlier HistogramSnapshot) HistogramSnapshot {
	var d HistogramSnapshot
	for i := range s.Counts {
		d.Counts[i] = s.Counts[i] - earlier.Counts[i]
	}
	d.Sum = s.Sum - earlier.Sum
	return d
}

// Quantile returns an upper bound on the q-quantile (0 ≤ q ≤ 1) of the
// snapshot: the bound of the first bucket whose cumulative count reaches
// rank q. With power-of-two buckets the answer is within 2× of the true
// quantile — plenty for trend tracking. Returns 0 for an empty snapshot.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	total := s.Count()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q*float64(total-1)) + 1
	var cum int64
	for i, c := range s.Counts {
		cum += c
		if cum >= rank {
			return BucketBound(i)
		}
	}
	return BucketBound(histBuckets - 1)
}
