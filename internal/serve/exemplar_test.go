package serve

import (
	"testing"
	"time"

	"parapriori/internal/itemset"
	"parapriori/internal/obsv"
)

// TestExemplarResolvesInFlight is the exemplar-linkage property: after a
// seeded slow request (forced cache miss plus injected latency), the latency
// histogram's slowest exemplar must carry a span ID that resolves to a
// request span in the always-on flight ring whose cache attribute says
// "miss", with the basket hash and generation matching the request that
// produced it.
func TestExemplarResolvesInFlight(t *testing.T) {
	s := NewServer(Options{CacheSize: 128})
	defer s.Close()
	s.Publish(NewIndex(synthRules(80, 12, 3), Options{}))

	// Background traffic: the same basket over and over, so the fast path is
	// all cache hits.
	warm := []itemset.Item{1, 2}
	for i := 0; i < 8; i++ {
		if _, err := s.Recommend(warm, 5); err != nil {
			t.Fatal(err)
		}
	}

	// The seeded slow request: a basket nobody asked before (a forced cache
	// miss) with injected latency far above anything the fast path produces.
	const delay = 40 * time.Millisecond
	s.slow = func() { time.Sleep(delay) }
	slowBasket := []itemset.Item{3, 7, 9}
	if _, err := s.Recommend(slowBasket, 5); err != nil {
		t.Fatal(err)
	}
	s.slow = nil

	exs := s.Metrics().Exemplars
	if len(exs) == 0 {
		t.Fatal("no exemplars recorded")
	}
	slowest := exs[0]
	for _, e := range exs[1:] {
		if e.LatencyUs > slowest.LatencyUs {
			slowest = e
		}
	}
	if slowest.LatencyUs < delay.Microseconds() {
		t.Fatalf("slowest exemplar %dµs, want at least the injected %v", slowest.LatencyUs, delay)
	}
	if slowest.Cache != "miss" {
		t.Errorf("slowest exemplar cache = %q, want miss", slowest.Cache)
	}
	if want := BasketHash(itemset.New(slowBasket...)); slowest.BasketHash != want {
		t.Errorf("slowest exemplar basket hash %q, want %q", slowest.BasketHash, want)
	}
	if slowest.Generation != 1 {
		t.Errorf("slowest exemplar generation %d, want 1", slowest.Generation)
	}

	// The linkage that makes the exemplar actionable: its span ID resolves to
	// the causal request span still live in the flight ring.
	tr := s.Flight().Trace()
	var found *obsv.Span
	for i := range tr.Spans {
		sp := &tr.Spans[i]
		if sp.Cat != obsv.CatRequest {
			continue
		}
		if v, ok := sp.Arg("link"); ok && v == slowest.SpanID {
			found = sp
			break
		}
	}
	if found == nil {
		t.Fatalf("exemplar span %q does not resolve in the flight ring (%d spans)", slowest.SpanID, len(tr.Spans))
	}
	if v, _ := found.Arg("cache"); v != "miss" {
		t.Errorf("resolved span cache = %q, want miss", v)
	}
	if found.Dur() < delay.Seconds() {
		t.Errorf("resolved span lasted %.6fs, want at least %v", found.Dur(), delay)
	}
}
