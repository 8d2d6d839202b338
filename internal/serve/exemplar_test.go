package serve

import (
	"reflect"
	"sync"
	"sync/atomic"
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

// TestRequestSpanMatchesHistogram: a request's span carries exactly its
// link, raw basket length, K, cache outcome and result count, and its
// duration is its exemplar's latency to the microsecond — both are timed
// from the request's one clock read at entry and one at exit.  Covered for
// an ErrNoSnapshot request (K as asked), a miss and a hit (K clamped).
func TestRequestSpanMatchesHistogram(t *testing.T) {
	s := NewServer(Options{CacheSize: 16})
	defer s.Close()
	basket := []itemset.Item{9, 3, 3, 7}
	check := func(link, cache string, gen uint64, k, results int) {
		t.Helper()
		exs := s.Metrics().Exemplars
		if len(exs) != 1 {
			t.Fatalf("%s: %d exemplars after one request, want 1", cache, len(exs))
		}
		ex := exs[0]
		if ex.SpanID != link || ex.Cache != cache || ex.Generation != gen ||
			ex.BasketHash != BasketHash(itemset.New(basket...)) {
			t.Errorf("%s: exemplar %+v, want span %s, generation %d, hash of %v", cache, ex, link, gen, basket)
		}
		var span *obsv.Span
		tr := s.Flight().Trace()
		for i := range tr.Spans {
			if v, _ := tr.Spans[i].Arg("link"); v == link && tr.Spans[i].Cat == obsv.CatRequest {
				span = &tr.Spans[i]
			}
		}
		if span == nil {
			t.Fatalf("%s: no request span links to %s", cache, link)
		}
		want := []obsv.Attr{
			obsv.String("link", link),
			obsv.Int("basket", int64(len(basket))),
			obsv.Int("k", int64(k)),
			obsv.String("cache", cache),
			obsv.Int("results", int64(results)),
		}
		if span.Name != "recommend" || span.Rank != 0 || !reflect.DeepEqual(span.Args, want) {
			t.Errorf("%s: span %s rank %d args %v, want recommend rank 0 %v", cache, span.Name, span.Rank, span.Args, want)
		}
		// LatencyUs truncates the same interval the span spans; the slack
		// covers float rounding of the epoch offsets, not a third read.
		if us := span.Dur() * 1e6; us < float64(ex.LatencyUs)-1e-3 || us >= float64(ex.LatencyUs+1)+1e-3 {
			t.Errorf("%s: span lasts %.3fµs, exemplar says %dµs", cache, us, ex.LatencyUs)
		}
		s.met.reset()
	}

	if _, _, err := s.RecommendTraced(basket, 0, ""); err != ErrNoSnapshot {
		t.Fatalf("before publish: %v, want ErrNoSnapshot", err)
	}
	check("r1", "error", 0, 0, 0)

	s.Publish(NewIndex(synthRules(80, 12, 3), Options{}))
	out, err := s.Recommend(basket, 0)
	if err != nil || len(out) == 0 {
		t.Fatalf("need a non-empty answer: %v %v", out, err)
	}
	check("r2", "miss", 1, DefaultK, len(out))
	if _, _, err := s.RecommendTraced(basket, 0, "q7"); err != nil {
		t.Fatal(err)
	}
	check("q7", "hit", 1, DefaultK, len(out))
}

// TestExemplarSelection scripts a bucket's exemplar slot with latencies and
// end times: an empty slot takes the first request, a slower one displaces
// the incumbent, an equal or faster one leaves it, and an incumbent 60 s
// old gives way to anything.  Only the requests that win call their build
// function.
func TestExemplarSelection(t *testing.T) {
	var h Hist
	t0 := time.Unix(1_700_000_000, 0)
	var built []string
	observe := func(id string, us int64, at time.Duration) {
		h.ObserveAt(time.Duration(us)*time.Microsecond, t0.Add(at), func() Exemplar {
			built = append(built, id)
			return Exemplar{SpanID: id}
		})
	}
	holder := func() Exemplar {
		t.Helper()
		exs := h.Exemplars()
		if len(exs) != 1 {
			t.Fatalf("%d exemplar slots filled, want 1: %+v", len(exs), exs)
		}
		return exs[0]
	}

	observe("first", 70, 0) // every sample lands in bucket 7: (64, 128] µs
	observe("slower", 100, time.Second)
	observe("equal", 100, 2*time.Second)
	observe("faster", 80, 3*time.Second)
	observe("not-yet-stale", 65, time.Second+exemplarTTL-time.Millisecond)
	if ex := holder(); ex.SpanID != "slower" || ex.LatencyUs != 100 || ex.Bucket != 7 || !ex.at.Equal(t0.Add(time.Second)) {
		t.Fatalf("incumbent %+v at %v, want slower (100µs, bucket 7) at t0+1s", ex, ex.at)
	}
	observe("after-ttl", 65, time.Second+exemplarTTL)
	if ex := holder(); ex.SpanID != "after-ttl" || ex.LatencyUs != 65 {
		t.Fatalf("incumbent %+v, want after-ttl once slower is %v old", ex, exemplarTTL)
	}
	if want := []string{"first", "slower", "after-ttl"}; !reflect.DeepEqual(built, want) {
		t.Fatalf("built %v, want only the winners %v", built, want)
	}
	if got := h.Counts()[7]; got != 6 {
		t.Fatalf("bucket 7 counted %d samples, want 6: losing the slot still counts", got)
	}
}

// TestExemplarSlowMissAmidHits: one slow miss, held up through the slow
// seam, completes while several goroutines hammer the cache with hits; the
// hits race the slots (each checking its bucket's incumbent, a few
// building and offering), and the slow miss must end up as its bucket's
// exemplar.
func TestExemplarSlowMissAmidHits(t *testing.T) {
	s := NewServer(Options{CacheSize: 64})
	defer s.Close()
	s.Publish(NewIndex(synthRules(80, 12, 3), Options{}))
	hot := [][]itemset.Item{{1, 2}, {2, 5}, {4, 3}, {1, 6}}
	for _, b := range hot {
		if _, err := s.Recommend(b, 5); err != nil {
			t.Fatal(err)
		}
	}

	const delay = 50 * time.Millisecond
	entered := make(chan struct{})
	var first atomic.Bool
	s.slow = func() { // the first request through is the miss below
		if first.CompareAndSwap(false, true) {
			close(entered)
			time.Sleep(delay)
		}
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := s.RecommendTraced([]itemset.Item{3, 7, 9}, 5, "slow-miss")
		done <- err
	}()
	<-entered
	var (
		stop atomic.Bool
		hits atomic.Int64
		wg   sync.WaitGroup
	)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; !stop.Load(); i++ {
				if _, err := s.Recommend(hot[i%len(hot)], 5); err != nil {
					t.Error(err)
					return
				}
				hits.Add(1)
			}
		}()
	}
	err := <-done
	stop.Store(true)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if hits.Load() == 0 || s.Metrics().CacheHits < hits.Load() {
		t.Fatalf("%d hits ran beside the slow miss (%d counted), want some", hits.Load(), s.Metrics().CacheHits)
	}
	var slowest Exemplar
	for _, e := range s.Metrics().Exemplars {
		if e.LatencyUs > slowest.LatencyUs {
			slowest = e
		}
	}
	if slowest.SpanID != "slow-miss" || slowest.Cache != "miss" || slowest.LatencyUs < delay.Microseconds() {
		t.Fatalf("slowest bucket's exemplar %+v, want the slow miss (≥ %v)", slowest, delay)
	}
}
