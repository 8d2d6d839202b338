package obsv

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{0, 5e-7, 1e-6, 1.5e-6, 3e-6, 9e-6}, 0)
	if h.Base != HistBase {
		t.Fatalf("base = %v", h.Base)
	}
	if h.Count != 6 || h.Min != 0 || h.Max != 9e-6 {
		t.Fatalf("count/min/max = %d/%v/%v", h.Count, h.Min, h.Max)
	}
	// Buckets: [0,1e-6) [1e-6,2e-6) [2e-6,4e-6) [4e-6,8e-6) [8e-6,16e-6)
	counts := make([]int, len(h.Buckets))
	for i, b := range h.Buckets {
		counts[i] = b.Count
	}
	if want := []int{2, 2, 1, 0, 1}; !reflect.DeepEqual(counts, want) {
		t.Errorf("bucket counts = %v, want %v", counts, want)
	}
	// Bounds tile [0, ...) with doubling widths and the last bucket covers
	// the max — no +Inf anywhere.
	lo := 0.0
	for i, b := range h.Buckets {
		if b.Lo != lo {
			t.Errorf("bucket %d Lo = %v, want %v", i, b.Lo, lo)
		}
		if math.IsInf(b.Hi, 0) {
			t.Errorf("bucket %d has infinite bound", i)
		}
		lo = b.Hi
	}
	if last := h.Buckets[len(h.Buckets)-1]; h.Max >= last.Hi {
		t.Errorf("max %v not covered by last bucket [%v, %v)", h.Max, last.Lo, last.Hi)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := newHistogram(nil, 0)
	if h.Count != 0 || len(h.Buckets) != 0 {
		t.Fatalf("empty histogram = %+v", h)
	}
	b, err := json.Marshal(h)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if strings.Contains(string(b), "buckets") {
		t.Errorf("empty histogram marshals buckets: %s", b)
	}
}

func TestHistogramDeterministicJSON(t *testing.T) {
	vals := []float64{2e-6, 1e-4, 3.7e-5, 2e-6}
	a, _ := json.Marshal(newHistogram(vals, 0))
	b, _ := json.Marshal(newHistogram([]float64{2e-6, 2e-6, 3.7e-5, 1e-4}, 0))
	if !bytes.Equal(a, b) {
		t.Errorf("same multiset, different JSON:\n%s\n%s", a, b)
	}
}

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
	if h := PassHistogram(tr); h.Count != 3 {
		t.Errorf("pass histogram count = %d", h.Count)
	}
}

func TestWriteHistogram(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHistogram(&buf, PassHistogram(tracePasses())); err != nil {
		t.Fatalf("write: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "n=3") || !strings.Contains(out, "#") {
		t.Errorf("unexpected rendering:\n%s", out)
	}
}
