package obsv

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// span builds a minimal test span at a virtual time.
func span(rank int, start float64, name string) Span {
	return Span{Name: name, Cat: CatSection, Rank: rank, Start: start, End: start + 0.5}
}

// TestFlightMirrorsCollector: below capacity, a Flight's trace is
// byte-identical to a Collector's over the same recording sequence — the
// ring dump is the same format as a full trace, not an approximation of it.
// Past a default ring's capacity the collector still keeps every span.
func TestFlightMirrorsCollector(t *testing.T) {
	fl := NewFlight(ClockVirtual, 64)
	co := NewCollector(ClockVirtual)
	for _, rec := range []Recorder{fl, co} {
		rec.SetMeta("algo", "cd")
		rec.SetMeta("p", "4")
		for rank := 0; rank < 4; rank++ {
			for i := 0; i < 10; i++ {
				rec.Record(span(rank, float64(i), fmt.Sprintf("s%d", i)))
			}
		}
	}
	ft, ct := fl.Trace(), co.Trace()
	if !reflect.DeepEqual(ft, ct) {
		t.Fatalf("flight trace differs from collector trace:\n flight: %+v\n collector: %+v", ft, ct)
	}
	var fb, cb bytes.Buffer
	if err := WriteTrace(&fb, ft); err != nil {
		t.Fatal(err)
	}
	if err := WriteTrace(&cb, ct); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fb.Bytes(), cb.Bytes()) {
		t.Fatalf("flight Perfetto bytes differ from collector's")
	}

	ring, all := NewFlight(ClockVirtual, 0), NewCollector(ClockVirtual)
	const perRank = DefaultFlightSpans + 10
	for _, rec := range []Recorder{ring, all} {
		for rank := 0; rank < 2; rank++ {
			for i := 0; i < perRank; i++ {
				rec.Record(span(rank, float64(i), fmt.Sprintf("s%d", i)))
			}
		}
	}
	if got, d := all.Len(), all.Dropped(); got != 2*perRank || d != 0 {
		t.Fatalf("collector kept %d spans, dropped %d; want %d, 0", got, d, 2*perRank)
	}
	if got := len(all.Trace().Spans); got != 2*perRank {
		t.Fatalf("collector trace has %d spans, want %d", got, 2*perRank)
	}
	if got, d := ring.Len(), ring.Dropped(); got != 2*DefaultFlightSpans || d != 20 {
		t.Fatalf("default ring kept %d spans, dropped %d; want %d, 20", got, d, 2*DefaultFlightSpans)
	}
}

// TestFlightEviction: past capacity each rank keeps its newest spans, oldest
// first in the dump, and Dropped counts the fall-off.
func TestFlightEviction(t *testing.T) {
	fl := NewFlight(ClockVirtual, 4)
	for i := 0; i < 11; i++ {
		fl.Record(span(0, float64(i), fmt.Sprintf("s%d", i)))
	}
	if got := fl.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := fl.Dropped(); got != 7 {
		t.Fatalf("Dropped = %d, want 7", got)
	}
	tr := fl.Trace()
	var names []string
	for _, s := range tr.Spans {
		names = append(names, s.Name)
	}
	if want := []string{"s7", "s8", "s9", "s10"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("retained window %v, want %v", names, want)
	}
	// Re-dumping without new records is stable.
	if !reflect.DeepEqual(fl.Trace(), tr) {
		t.Fatalf("second dump differs")
	}
}

func TestFlightDefaultCapacity(t *testing.T) {
	fl := NewFlight(ClockReal, 0)
	for i := 0; i < DefaultFlightSpans+5; i++ {
		fl.Record(span(1, float64(i), "x"))
	}
	if got := fl.Len(); got != DefaultFlightSpans {
		t.Fatalf("Len = %d, want %d", got, DefaultFlightSpans)
	}
}

// TestTee: fan-out reaches every recorder; nils collapse away.
func TestTee(t *testing.T) {
	if Tee() != nil || Tee(nil, nil) != nil {
		t.Fatalf("Tee of no recorders should be nil")
	}
	c := NewCollector(ClockVirtual)
	if got := Tee(nil, c); got != Recorder(c) {
		t.Fatalf("Tee of one recorder should be that recorder")
	}
	f := NewFlight(ClockVirtual, 8)
	both := Tee(c, f)
	both.SetMeta("k", "v")
	both.Record(span(0, 1, "a"))
	if len(c.Trace().Spans) != 1 || f.Len() != 1 {
		t.Fatalf("tee did not reach both recorders")
	}
	if v, ok := f.Trace().MetaValue("k"); !ok || v != "v" {
		t.Fatalf("tee did not forward meta")
	}
}

func TestQuantile(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0, 1}, {0.5, 5}, {0.95, 10}, {0.99, 10}, {1, 10}, {0.1, 1}, {0.11, 2}} {
		if got := Quantile(vals, tc.q); got != tc.want {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("Quantile(empty) = %v", got)
	}
}

// TestLintProm: a well-formed PromWriter exposition is clean, and each
// convention violation is reported.
func TestLintProm(t *testing.T) {
	w := NewPromWriter()
	w.Counter("parapriori_queries_total", "Queries served.", 3)
	w.Gauge("parapriori_rules", "Rules resident.", 80)
	w.Histogram("parapriori_query_latency_seconds", "Latency.", []float64{0.001, 0.01}, []int64{1, 2}, 0.02)
	if issues := LintProm(w.Bytes()); len(issues) != 0 {
		t.Fatalf("clean exposition flagged: %v", issues)
	}

	for _, tc := range []struct {
		name string
		text string
		want string
	}{
		{"counter without _total",
			"# HELP parapriori_hits Hits.\n# TYPE parapriori_hits counter\nparapriori_hits 1\n",
			"does not end in _total"},
		{"gauge with _total",
			"# HELP parapriori_x_total X.\n# TYPE parapriori_x_total gauge\nparapriori_x_total 1\n",
			"must not end in _total"},
		{"micros unit",
			"# HELP parapriori_p99_micros P99.\n# TYPE parapriori_p99_micros gauge\nparapriori_p99_micros 5\n",
			"non-base time unit"},
		{"orphan sample", "parapriori_orphan 1\n", "no preceding # HELP/# TYPE"},
		{"help after type",
			"# TYPE parapriori_y gauge\n# HELP parapriori_y Y.\nparapriori_y 1\n",
			"# TYPE without preceding # HELP"},
		{"uppercase name",
			"# HELP parapriori_Bad B.\n# TYPE parapriori_Bad gauge\nparapriori_Bad 1\n",
			"does not match"},
		{"bucket without le",
			"# HELP parapriori_h_seconds H.\n# TYPE parapriori_h_seconds histogram\nparapriori_h_seconds_bucket 1\n",
			"lacks an le label"},
	} {
		issues := LintProm([]byte(tc.text))
		found := false
		for _, is := range issues {
			if strings.Contains(is, tc.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: issues %v do not mention %q", tc.name, issues, tc.want)
		}
	}
}
