package serve

import (
	"math"
	"math/bits"
	"strings"
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
				want := 1.0 // bucket i holds (2^(i-1), 2^i] µs, bucket 0 up to 1 µs
				if q > 1 {
					want = float64(uint64(1) << bits.Len64(uint64(q)-1))
				}
				if got := h.Percentile(p); got != want {
					t.Fatalf("%s n=%d: Percentile(%v) = %v, want %v, the bucket bound of the quantile %v µs", shape.name, n, p, got, want, q)
				}
			}
		}
	}
}

// TestHistPromEdges: a latency exactly on a bucket edge is counted under
// that edge's inclusive le, and one above the top finite edge — up to the
// largest time.Duration — under +Inf alone, which the exposition writes
// once.
func TestHistPromEdges(t *testing.T) {
	var h Hist
	h.Observe(1024 * time.Microsecond)
	h.Observe(time.Hour)
	h.Observe(math.MaxInt64)
	w := obsv.NewPromWriter()
	w.Histogram("lat_seconds", "latency", h.UppersSeconds(), h.Counts(), h.SumSeconds())
	text := string(w.Bytes())
	for _, line := range []string{
		`lat_seconds_bucket{le="0.000512"} 0`,
		`lat_seconds_bucket{le="0.001024"} 1`,
		`lat_seconds_bucket{le="1073.741824"} 1`,
		`lat_seconds_bucket{le="+Inf"} 3`,
		`lat_seconds_count 3`,
	} {
		if !strings.Contains(text, line+"\n") {
			t.Errorf("exposition lacks %q:\n%s", line, text)
		}
	}
	if n := strings.Count(text, `le="+Inf"`); n != 1 {
		t.Errorf("%d +Inf lines, want 1:\n%s", n, text)
	}
	if strings.Contains(text, "2147.483648") {
		t.Errorf("the clamping top bucket has a finite edge:\n%s", text)
	}
}
