package serve

import (
	"math/bits"
	"testing"
	"time"

	"parapriori/internal/obsv"
)

// TestPercentileIsQuantileBucket: a histogram's percentile is the upper
// bound of the bucket holding the sample's nearest-rank quantile, the p99
// bench/ reports, and its count is the sample's size.  Samples of 1…n µs
// and of j² µs put adjacent ranks in different buckets at many (n, p).
func TestPercentileIsQuantileBucket(t *testing.T) {
	for _, shape := range []struct {
		name string
		us   func(j int) int64
	}{{"linear", func(j int) int64 { return int64(j) }}, {"square", func(j int) int64 { return int64(j * j) }}} {
		for n := 1; n <= 200; n++ {
			var h Hist
			sample := make([]float64, n)
			for j := 1; j <= n; j++ {
				h.Observe(time.Duration(shape.us(j)) * time.Microsecond)
				sample[j-1] = float64(shape.us(j))
			}
			if h.Count() != int64(n) {
				t.Fatalf("%s n=%d: Count = %d", shape.name, n, h.Count())
			}
			for _, p := range []float64{0.5, 0.95, 0.99} {
				q := obsv.Quantile(sample, p)
				want := float64(uint64(1) << bits.Len64(uint64(q)))
				if got := h.Percentile(p); got != want {
					t.Fatalf("%s n=%d: Percentile(%v) = %v, want %v, the bucket bound of the quantile %v µs", shape.name, n, p, got, want, q)
				}
			}
		}
	}
}
