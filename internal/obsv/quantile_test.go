package obsv

import (
	"reflect"
	"testing"
)

func tracePasses() *Trace {
	return &Trace{Clock: ClockVirtual, Spans: []Span{
		{Name: "pass k=2", Cat: CatPass, Rank: 0, Start: 0, End: 0.25, Args: []Attr{Int("k", 2)}},
		{Name: "pass k=3", Cat: CatPass, Rank: 0, Start: 0.25, End: 0.375, Args: []Attr{Int("k", 3)}},
		{Name: "pass k=2", Cat: CatPass, Rank: 1, Start: 0, End: 0.3, Args: []Attr{Int("k", 2)}},
		{Name: "count", Cat: CatSection, Rank: 0, Start: 0.01, End: 0.2},
		{Name: "count", Cat: CatSection, Rank: 1, Start: 0.02, End: 0.22},
		{Name: "reduce", Cat: CatSection, Rank: 0, Start: 0.2, End: 0.25},
		{Name: "mine cd", Cat: CatRun, Rank: -1, Start: 0, End: 0.375},
	}}
}

func TestPassDurations(t *testing.T) {
	tr := tracePasses()
	if got, want := PassDurations(tr, -1), []float64{0.125, 0.25, 0.3}; !reflect.DeepEqual(got, want) {
		t.Errorf("all passes = %v, want %v", got, want)
	}
	if got, want := PassDurations(tr, 3), []float64{0.125}; !reflect.DeepEqual(got, want) {
		t.Errorf("k=3 = %v, want %v", got, want)
	}
	if got := PassDurations(tr, 9); len(got) != 0 {
		t.Errorf("k=9 = %v, want empty", got)
	}
}

// TestNearestRank holds the rank rule to its definition, the least rank r
// in [1, n] with r ≥ q·n, over every sample size to 200 and quantiles off
// both ends of [0, 1].
func TestNearestRank(t *testing.T) {
	for n := 1; n <= 200; n++ {
		for _, q := range []float64{-0.5, 0, 0.001, 0.1, 0.25, 0.5, 0.95, 0.99, 0.999, 1, 1.5} {
			want := n
			for r := 1; r <= n; r++ {
				if float64(r) >= q*float64(n) {
					want = r
					break
				}
			}
			if got := NearestRank(q, n); got != want {
				t.Fatalf("NearestRank(%v, %d) = %d, want %d", q, n, got, want)
			}
		}
	}
}
