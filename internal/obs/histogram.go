package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// subBuckets is the number of buckets per octave [2^e, 2^(e+1)). Their
// bounds grow geometrically, by 2^(1/8) ≈ 1.09 (the layout of a
// Prometheus native histogram of schema 3), so a bucket's upper bound is
// within 1.1× of every value in the bucket.
const subBuckets = 8

// histBuckets is the fixed bucket count: bucket 0 holds v <= 0, and
// bucket 1 + e*subBuckets + j holds the values of octave e (0 <= e <= 62)
// whose mantissa v<<(63-e) lies in [subBound[j], subBound[j+1]).
const histBuckets = 1 + 63*subBuckets

// subBound[j] is 2^63 · 2^(j/subBuckets), rounded up: the least mantissa
// of sub-bucket j (subBound[0] = 2^63, sub-bucket j+1 starts where j
// ends).
var subBound = func() (b [subBuckets]uint64) {
	for j := range b {
		b[j] = uint64(math.Ceil(math.Ldexp(math.Exp2(float64(j)/subBuckets), 63)))
	}
	return b
}()

// Histogram is a fixed-layout histogram with eight geometric buckets per
// power of two. Observe is two atomic adds; there is no configuration and
// no locking. One type serves nanosecond latencies, frontier depths, and
// byte counts — the unit is part of the metric name (_ns, _depth, _bytes).
type Histogram struct {
	counts [histBuckets]atomic.Int64
	sum    atomic.Int64
}

// bucketOf returns the bucket index for v (negative values clamp to 0).
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	e := bits.Len64(uint64(v)) - 1
	m := uint64(v) << (63 - e)
	j := 0
	for j+1 < subBuckets && m >= subBound[j+1] {
		j++
	}
	return 1 + e*subBuckets + j
}

// BucketBound returns the inclusive upper bound of bucket i: the largest
// value bucketOf maps to i. Below 16 some buckets can hold no integer;
// such a bucket's bound equals its predecessor's.
func BucketBound(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= histBuckets-1 {
		return math.MaxInt64
	}
	e, j := (i-1)/subBuckets, (i-1)%subBuckets
	if j == subBuckets-1 {
		return 1<<(e+1) - 1
	}
	return int64((subBound[j+1] - 1) >> (63 - e))
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
// rank q. The answer is at least the true sample quantile and within 1.1×
// of it. Returns 0 for an empty snapshot.
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
