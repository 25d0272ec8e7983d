package obs

import (
	"bufio"
	"fmt"
	"io"
)

// WritePrometheus renders the Default registry in the Prometheus text
// exposition format (version 0.0.4).
func WritePrometheus(w io.Writer) error { return Default.WritePrometheus(w) }

// WritePrometheus renders every registered metric, sorted by name.
// Histograms emit cumulative _bucket series with the buckets' `le`
// bounds (only up to the highest non-empty bucket, each distinct bound
// once, then +Inf), plus the conventional _sum and _count series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, m := range r.snapshot() {
		fmt.Fprintf(bw, "# TYPE %s %s\n", m.name, m.kind)
		switch m.kind {
		case kindCounter:
			fmt.Fprintf(bw, "%s %d\n", m.name, m.ctr.Load())
		case kindGauge:
			fmt.Fprintf(bw, "%s %d\n", m.name, m.gau.Load())
		case kindHistogram:
			s := m.hist.Snapshot()
			top := 0
			for i, c := range s.Counts {
				if c > 0 {
					top = i
				}
			}
			var cum int64
			for i := 0; i <= top; i++ {
				cum += s.Counts[i]
				if i < top && BucketBound(i+1) == BucketBound(i) {
					continue // emit each bound once, after the last bucket with it
				}
				fmt.Fprintf(bw, "%s_bucket{le=\"%d\"} %d\n", m.name, BucketBound(i), cum)
			}
			fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", m.name, s.Count())
			fmt.Fprintf(bw, "%s_sum %d\n", m.name, s.Sum)
			fmt.Fprintf(bw, "%s_count %d\n", m.name, s.Count())
		}
	}
	return bw.Flush()
}
