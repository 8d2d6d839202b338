package obsv

import (
	"fmt"
	"sort"
)

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
	return sorted[NearestRank(q, len(sorted))-1]
}

// NearestRank returns the 1-based nearest rank of the q-quantile in a
// sample of n >= 1: ceil(q·n), clamped to [1, n].  It is the one rank rule
// of the repo, shared by Quantile and the serving tiers' bucketed
// percentiles, so a p99 means the same sample everywhere.
func NearestRank(q float64, n int) int {
	if !(q > 0) {
		return 1
	}
	if q >= 1 {
		return n
	}
	x := q * float64(n)
	rank := int(x)
	if float64(rank) < x {
		rank++
	}
	return rank
}
