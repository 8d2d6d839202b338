package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"parapriori/internal/itemset"
	"parapriori/internal/rules"
)

func TestRecommendBeforePublish(t *testing.T) {
	s := NewServer(Options{})
	defer s.Close()
	if _, err := s.Recommend([]itemset.Item{1}, 5); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("err = %v, want ErrNoSnapshot", err)
	}
	if g := s.Metrics().SnapshotGeneration; g != 0 {
		t.Fatalf("generation before publish = %d", g)
	}
}

// TestServerMatchesIndex: the server's cached, optionally pooled path must
// return exactly what the bare index returns, on hits and on misses.
func TestServerMatchesIndex(t *testing.T) {
	rs := synthRules(500, 30, 21)
	ix := NewIndex(rs, Options{})
	for _, workers := range []int{0, 3} {
		s := NewServer(Options{Workers: workers, CacheSize: 64})
		s.Publish(ix)
		rng := rand.New(rand.NewSource(33))
		for q := 0; q < 60; q++ {
			basket := randomBasket(rng, 30, 6)
			k := 1 + rng.Intn(10)
			want := ix.Recommend(basket, k)
			for pass := 0; pass < 2; pass++ { // second pass hits the cache
				got, err := s.Recommend(basket, k)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("workers %d pass %d basket %v k %d:\n got %v\nwant %v",
						workers, pass, basket, k, got, want)
				}
			}
		}
		s.Close()
	}
}

// TestRecommendDeterministic: same snapshot + basket + K ⇒ byte-identical
// ranked results, across repeated calls and pooled vs inline execution.
func TestRecommendDeterministic(t *testing.T) {
	rs := synthRules(800, 25, 13)
	ix := NewIndex(rs, Options{})
	inline := NewServer(Options{CacheSize: -1})
	pooled := NewServer(Options{Workers: 4, CacheSize: -1})
	defer inline.Close()
	defer pooled.Close()
	inline.Publish(ix)
	pooled.Publish(ix)
	rng := rand.New(rand.NewSource(2))
	for q := 0; q < 50; q++ {
		basket := randomBasket(rng, 25, 7)
		first, err := inline.Recommend(basket, 10)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("%v", first)
		for i := 0; i < 3; i++ {
			a, _ := inline.Recommend(basket, 10)
			b, _ := pooled.Recommend(basket, 10)
			if fmt.Sprintf("%v", a) != want || fmt.Sprintf("%v", b) != want {
				t.Fatalf("nondeterministic results for basket %v", basket)
			}
		}
	}
}

func TestCacheHitCounting(t *testing.T) {
	s := NewServer(Options{CacheSize: 16})
	defer s.Close()
	s.Publish(NewIndex(synthRules(100, 10, 3), Options{}))
	basket := []itemset.Item{1, 2, 3}
	if _, err := s.Recommend(basket, 5); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.CacheMisses != 1 || m.CacheHits != 0 {
		t.Fatalf("after first query: hits %d misses %d", m.CacheHits, m.CacheMisses)
	}
	// A permutation with duplicates canonicalizes to the same basket, so it
	// must hit.
	if _, err := s.Recommend([]itemset.Item{3, 1, 2, 2}, 5); err != nil {
		t.Fatal(err)
	}
	m = s.Metrics()
	if m.CacheHits != 1 {
		t.Fatalf("canonicalized re-query did not hit: %+v", m)
	}
	// A different K is a different result shape — must miss.
	if _, err := s.Recommend(basket, 6); err != nil {
		t.Fatal(err)
	}
	if m = s.Metrics(); m.CacheMisses != 2 {
		t.Fatalf("K change did not miss: %+v", m)
	}
}

// TestCacheInvalidatedOnSwap: after Publish, previously cached baskets must
// be recomputed against the new index.
func TestCacheInvalidatedOnSwap(t *testing.T) {
	// Two indexes that answer the same basket differently.
	mk := func(cons itemset.Item) *Index {
		return NewIndex([]rules.Rule{{
			Antecedent: itemset.New(1),
			Consequent: itemset.New(cons),
			Support:    0.5, Confidence: 0.9, Lift: 1.5,
		}}, Options{})
	}
	s := NewServer(Options{CacheSize: 16})
	defer s.Close()
	s.Publish(mk(7))
	basket := []itemset.Item{1}
	got, err := s.Recommend(basket, 5)
	if err != nil || len(got) != 1 || got[0].Consequent[0] != 7 {
		t.Fatalf("gen 1 answer: %v, %v", got, err)
	}
	if _, err := s.Recommend(basket, 5); err != nil {
		t.Fatal(err)
	}
	if m := s.Metrics(); m.CacheHits != 1 {
		t.Fatalf("warm-up did not hit: %+v", m)
	}

	s.Publish(mk(8))
	got, err = s.Recommend(basket, 5)
	if err != nil || len(got) != 1 || got[0].Consequent[0] != 8 {
		t.Fatalf("post-swap answer still stale: %v, %v", got, err)
	}
	m := s.Metrics()
	if m.CacheMisses != 2 {
		t.Fatalf("swap did not invalidate the cache: %+v", m)
	}
	if m.SnapshotGeneration != 2 {
		t.Fatalf("generation = %d, want 2", m.SnapshotGeneration)
	}
}

func TestLRUEviction(t *testing.T) {
	c := newLRU(2)
	r := func(n int64) []rules.Rule { return []rules.Rule{{Count: n}} }
	c.put("a", r(1))
	c.put("b", r(2))
	if _, ok := c.get([]byte("a")); !ok { // refresh a → b becomes LRU
		t.Fatal("a missing")
	}
	c.put("c", r(3)) // evicts b
	if _, ok := c.get([]byte("b")); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.get([]byte("a")); !ok {
		t.Fatal("a evicted despite being fresh")
	}
	if _, ok := c.get([]byte("c")); !ok {
		t.Fatal("c missing")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	// Overwriting an existing key must not grow the cache.
	c.put("c", r(4))
	if c.len() != 2 {
		t.Fatalf("len after overwrite = %d, want 2", c.len())
	}
	if v, _ := c.get([]byte("c")); v[0].Count != 4 {
		t.Fatalf("overwrite lost: %v", v)
	}
}

func TestLRUDisabled(t *testing.T) {
	if c := newLRU(-1); c != nil {
		t.Fatal("negative capacity should disable the cache")
	}
	// Capacity 0 stores nothing but must not panic.
	c := newLRU(0)
	c.put("a", nil)
	if _, ok := c.get([]byte("a")); ok {
		t.Fatal("zero-capacity cache stored an entry")
	}
}

// TestResultAliasing: mutating a returned recommendation must not corrupt
// the cache's copy.
func TestResultAliasing(t *testing.T) {
	s := NewServer(Options{CacheSize: 8})
	defer s.Close()
	s.Publish(NewIndex(synthRules(50, 8, 5), Options{}))
	basket := []itemset.Item{1, 2, 3, 4}
	a, err := s.Recommend(basket, 5)
	if err != nil || len(a) == 0 {
		t.Fatalf("need a non-empty result for this test: %v %v", a, err)
	}
	want := fmt.Sprintf("%v", a)
	a[0] = rules.Rule{} // caller scribbles over its copy
	b, err := s.Recommend(basket, 5)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%v", b) != want {
		t.Fatalf("cache entry was aliased to the caller's slice:\n got %v\nwant %s", b, want)
	}
}

func TestKDefaultsAndCap(t *testing.T) {
	// Half the items in the basket: rules with their antecedent in it and
	// their consequent outside it fire, a few hundred of them.
	rs := synthRules(2000, 40, 17)
	s := NewServer(Options{CacheSize: -1})
	defer s.Close()
	s.Publish(NewIndex(rs, Options{}))
	var basket []itemset.Item
	for it := range itemset.Item(20) {
		basket = append(basket, it)
	}
	avail := len(oracle(rs, itemset.New(basket...), -1))
	if avail <= MaxK {
		t.Fatalf("fixture fires %d rules; the cap needs more than MaxK=%d", avail, MaxK)
	}
	got, err := s.Recommend(basket, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != MaxK {
		t.Fatalf("MaxK not enforced: got %d rules, want exactly %d of %d", len(got), MaxK, avail)
	}
	if got, _ := s.Recommend(basket, 0); len(got) != DefaultK {
		t.Fatalf("k=0 served %d rules, want DefaultK=%d", len(got), DefaultK)
	}
}

// TestRecommendHitAllocs bounds what a warm-cache hit allocates: the span
// link, the answer copy (the caller's to keep) and the span's attributes —
// plus, for a basket out of canonical order, its canonical copy.  The cache
// key is built on the stack, and the exemplar only when it wins its bucket
// (rare once the buckets are warm, so it vanishes in the per-run average).
// Before these, a hit took 12 allocations.
func TestRecommendHitAllocs(t *testing.T) {
	s := NewServer(Options{CacheSize: 64})
	defer s.Close()
	s.Publish(NewIndex(synthRules(2000, 40, 17), Options{}))
	for _, c := range []struct {
		name   string
		basket []itemset.Item
		bound  float64
	}{
		{"unsorted", []itemset.Item{31, 4, 17, 9, 26, 2, 38, 12}, 4},
		{"canonical", []itemset.Item{2, 4, 9, 12, 17, 26, 31, 38}, 3},
	} {
		if out, err := s.Recommend(c.basket, 10); err != nil || len(out) == 0 {
			t.Fatalf("%s: need a non-empty answer: %v %v", c.name, out, err)
		}
		hits := s.Metrics().CacheHits
		const runs = 200
		got := testing.AllocsPerRun(runs, func() { sinkRules, _ = s.Recommend(c.basket, 10) })
		if n := s.Metrics().CacheHits - hits; n != runs+1 {
			t.Fatalf("%s: %d of %d queries hit the cache", c.name, n, runs+1)
		}
		t.Logf("%s basket: %v allocations per hit", c.name, got)
		if got > c.bound {
			t.Errorf("%s basket: %v allocations per hit, want ≤ %v", c.name, got, c.bound)
		}
	}
}
