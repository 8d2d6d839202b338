package serve

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"parapriori/internal/datagen"
	"parapriori/internal/itemset"
)

// BenchmarkRecommend measures serving latency on a 10⁵-rule index: the
// cache-cold path (every basket unique per iteration window), the cache-hit
// path, and the pooled fan-out path.  mined-miss is the cache-cold path on
// rules mined from a T12.I4 set and asked that set's own transactions, the
// shape the repository benchmark's serve-miss has: there most groups that
// fire recommend nothing, because the basket already holds every item their
// rules would recommend, while the synthetic rules' random baskets almost
// never hold a group's consequents.  The p99 each sub-benchmark reports
// comes from the server's own /metrics histogram — the same surface
// production monitoring reads.
func BenchmarkRecommend(b *testing.B) {
	const (
		nRules  = 100_000
		nItems  = 2_000
		baskets = 4096
	)
	rs := synthRules(nRules, nItems, 42)
	ix := NewIndex(rs, Options{})
	rng := rand.New(rand.NewSource(7))
	qs := make([][]itemset.Item, baskets)
	for i := range qs {
		raw := make([]itemset.Item, 8)
		for j := range raw {
			raw[j] = itemset.Item(rng.Intn(nItems))
		}
		qs[i] = raw
	}

	// run warms the server with one pass over every basket (faulting the
	// fresh index's pages in — "cache cold" means the query cache, not the
	// first touch of 100k rules), resets the metrics so warm-up traffic
	// stays out of the reported percentiles, and measures.
	run := func(b *testing.B, s *Server, qs [][]itemset.Item) {
		b.Helper()
		for _, q := range qs {
			if _, err := s.Recommend(q, 10); err != nil {
				b.Fatal(err)
			}
		}
		s.met.reset()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Recommend(qs[i%len(qs)], 10); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		m := s.Metrics()
		b.ReportMetric(m.P99LatencyMicros, "p99-µs")
		b.ReportMetric(m.P50LatencyMicros, "p50-µs")
	}

	b.Run("miss", func(b *testing.B) {
		s := NewServer(Options{CacheSize: -1}) // cache disabled: every query cold
		defer s.Close()
		s.Publish(ix)
		run(b, s, qs)
	})

	b.Run("hit", func(b *testing.B) {
		s := NewServer(Options{CacheSize: baskets})
		defer s.Close()
		s.Publish(ix)
		run(b, s, qs) // the warm-up pass fills the cache, so the timed pass hits
	})

	b.Run("pooled-miss", func(b *testing.B) {
		s := NewServer(Options{Workers: 8, CacheSize: -1})
		defer s.Close()
		s.Publish(ix)
		run(b, s, qs)
	})

	b.Run("mined-miss", func(b *testing.B) {
		p := datagen.Defaults()
		p.NumTransactions, p.NumItems, p.NumPatterns, p.AvgTxnLen, p.AvgPatternLen = 5_000, 300, 200, 12, 4
		rs, data := minedRules(p, 0.01, 0.5)
		txns := make([][]itemset.Item, len(data.Transactions))
		for i, tx := range data.Transactions {
			txns[i] = tx.Items
		}
		s := NewServer(Options{CacheSize: -1})
		defer s.Close()
		s.Publish(NewIndex(rs, Options{}))
		run(b, s, txns)
	})
}

// TestRecommendLatencyBudget is the testable floor under the benchmark: on
// the 10⁵-rule index a cold query must come in far under a millisecond at
// the p99, a cache-hit pass must cost under 12 µs a query, and must beat the
// miss pass by ≥ 2×.  The thresholds are deliberately loose multiples of
// what the benchmark measures (~8 µs cold, ~2 µs hot) so a slow CI box
// cannot flake it, while a complexity regression — say the index degrading
// to a full rule scan, or a hit re-running the query — still trips it.
//
// The hit budget is absolute because a ratio to the miss pass bounds the
// hit path only as tightly as misses are slow: a miss is an id scan that
// keeps k ids, within 5× of a hit, so the ratio alone would let hits slow
// down as misses sped up.  12 µs is a fifth of the ~60 µs a miss cost when
// it sorted every firing rule, the bound hits were first held to; the ratio
// beside it only says the cache answers a hit without running the query.
func TestRecommendLatencyBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("latency budget needs the full-size index")
	}
	rs := synthRules(100_000, 2_000, 42)
	ix := NewIndex(rs, Options{})
	rng := rand.New(rand.NewSource(9))
	qs := make([][]itemset.Item, 512)
	for i := range qs {
		raw := make([]itemset.Item, 8)
		for j := range raw {
			raw[j] = itemset.Item(rng.Intn(2_000))
		}
		qs[i] = raw
	}

	// One untimed pass faults the freshly built index's pages in — the
	// budget is about steady-state query cost, not first-touch page faults —
	// then three timed passes, each into fresh metrics, and the best pass's
	// p99 is judged: a pass preempted by a neighbour (a concurrent go test
	// compile on a two-core box) must not own the verdict, while a
	// complexity regression slows all three.
	miss := NewServer(Options{CacheSize: -1})
	defer miss.Close()
	miss.Publish(ix)
	passP99 := func() float64 {
		miss.met.reset()
		for _, q := range qs {
			if _, err := miss.Recommend(q, 10); err != nil {
				t.Fatal(err)
			}
		}
		return miss.Metrics().P99LatencyMicros
	}
	passP99()
	best := math.Min(passP99(), math.Min(passP99(), passP99()))
	if best >= 1000 {
		t.Errorf("cold p99 = %.0fµs in the best of three passes, budget < 1000µs", best)
	}

	hit := NewServer(Options{CacheSize: len(qs)})
	defer hit.Close()
	hit.Publish(ix)
	warm := time.Now()
	for _, q := range qs {
		if _, err := hit.Recommend(q, 10); err != nil {
			t.Fatal(err)
		}
	}
	missElapsed := time.Since(warm)
	// Best of three hit passes, for the reason the p99 above is.
	hitElapsed := time.Duration(math.MaxInt64)
	for pass := 0; pass < 3; pass++ {
		hot := time.Now()
		for _, q := range qs {
			if _, err := hit.Recommend(q, 10); err != nil {
				t.Fatal(err)
			}
		}
		hitElapsed = min(hitElapsed, time.Since(hot))
	}
	if perHit := hitElapsed / time.Duration(len(qs)); perHit >= 12*time.Microsecond {
		t.Errorf("cache hit = %v a query in the best of three passes, budget < 12µs", perHit)
	}
	if hitElapsed*2 > missElapsed {
		t.Errorf("cache-hit path not ≥2× faster: hits %v vs misses %v", hitElapsed, missElapsed)
	}
}
