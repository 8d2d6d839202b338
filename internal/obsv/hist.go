package obsv

import (
	"fmt"
	"io"
	"sort"
)

// Deterministic duration histograms over trace spans.  The mining engine's
// virtual clock makes span durations exactly reproducible for a seeded run,
// so a histogram of them is a *distribution-shaped* view of a run:
// `cmd/trace -hist` prints one per trace, and a perf change that shifts only
// the tail (a straggler rank, one bad pass) moves buckets that a mean would
// smear away.

// HistBase is the default lower bound of the first finite bucket: one
// virtual microsecond, comfortably below any real pass on the modeled
// machines.
const HistBase = 1e-6

// HistBucket is one bucket of a Histogram, covering [Lo, Hi).
type HistBucket struct {
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
	Count int     `json:"count"`
}

// Histogram is a log-2-bucketed distribution of durations.  Bucket 0 covers
// [0, Base); bucket i ≥ 1 covers [Base·2^(i-1), Base·2^i).  Buckets are
// materialized only up to the one containing Max — there is no +Inf bucket,
// so the struct marshals to plain JSON with finite bounds.
type Histogram struct {
	Base    float64      `json:"base"`
	Count   int          `json:"count"`
	Min     float64      `json:"min"`
	Max     float64      `json:"max"`
	Sum     float64      `json:"sum"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// newHistogram buckets the values.  base <= 0 selects HistBase.  The result
// is a pure function of the multiset of values, so byte-deterministic
// producers get byte-deterministic histograms.
func newHistogram(values []float64, base float64) Histogram {
	if base <= 0 {
		base = HistBase
	}
	h := Histogram{Base: base}
	if len(values) == 0 {
		return h
	}
	// Sum in sorted order so the result depends on the multiset of values,
	// not the caller's ordering (float addition is not commutative in
	// rounding).
	values = append([]float64(nil), values...)
	sort.Float64s(values)
	h.Min, h.Max = values[0], values[len(values)-1]
	for _, v := range values {
		h.Sum += v
		if v < h.Min {
			h.Min = v
		}
		if v > h.Max {
			h.Max = v
		}
	}
	// Bucket index by doubling, not math.Log2: repeated multiplication is
	// exact for these magnitudes and identical on every platform.
	idx := func(v float64) int {
		i, hi := 0, base
		for v >= hi {
			i++
			hi *= 2
		}
		return i
	}
	h.Buckets = make([]HistBucket, idx(h.Max)+1)
	lo, hi := 0.0, base
	for i := range h.Buckets {
		h.Buckets[i] = HistBucket{Lo: lo, Hi: hi}
		lo, hi = hi, hi*2
	}
	for _, v := range values {
		h.Buckets[idx(v)].Count++
		h.Count++
	}
	return h
}

// PassDurations extracts the per-rank pass-span durations of a trace — one
// observation per (rank, pass) — sorted ascending.  k >= 0 restricts to one
// pass; k < 0 takes all passes.
func PassDurations(t *Trace, k int) []float64 {
	var out []float64
	want := ""
	if k >= 0 {
		want = fmt.Sprintf("%d", k)
	}
	for _, s := range t.Spans {
		if s.Cat != CatPass {
			continue
		}
		if want != "" {
			if v, ok := s.Arg("k"); !ok || v != want {
				continue
			}
		}
		out = append(out, s.Dur())
	}
	sort.Float64s(out)
	return out
}

// Quantile returns the nearest-rank q-quantile (q in [0, 1]) of an
// ascending-sorted sample, 0 for an empty one.  Exact over the sample, no
// interpolation — two identical runs report identical percentiles.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	// Nearest rank: ceil(q*n), 1-based.
	rank := int(q * float64(len(sorted)))
	if float64(rank) < q*float64(len(sorted)) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// PassHistogram buckets PassDurations(t, -1) with the default base.
func PassHistogram(t *Trace) Histogram {
	return newHistogram(PassDurations(t, -1), 0)
}

// WriteHistogram renders the histogram as an aligned text table with
// fixed-precision numbers, deterministic for a deterministic histogram.
func WriteHistogram(w io.Writer, h Histogram) error {
	mean := 0.0
	if h.Count > 0 {
		mean = h.Sum / float64(h.Count)
	}
	if _, err := fmt.Fprintf(w, "n=%d min=%.6f max=%.6f mean=%.6f (seconds)\n",
		h.Count, h.Min, h.Max, mean); err != nil {
		return err
	}
	for _, b := range h.Buckets {
		if _, err := fmt.Fprintf(w, "[%12.6f, %12.6f) %6d %s\n",
			b.Lo, b.Hi, b.Count, bar(b.Count, h.Count)); err != nil {
			return err
		}
	}
	return nil
}

// bar renders a proportional bar up to 40 columns.
func bar(count, total int) string {
	if total == 0 {
		return ""
	}
	n := count * 40 / total
	if n == 0 && count > 0 {
		n = 1
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}
