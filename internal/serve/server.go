package serve

import (
	"encoding/binary"
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"parapriori/internal/itemset"
	"parapriori/internal/obsv"
	"parapriori/internal/rules"
)

// ErrNoSnapshot is returned by queries before the first Publish.
var ErrNoSnapshot = errors.New("serve: no snapshot published yet")

// snapshot is one immutable serving state: an index, its generation number
// and the query cache built for it.  The Server swaps whole snapshots, so a
// query that loaded one keeps a consistent (index, cache) pair for its full
// lifetime even while a Publish lands mid-flight.
type snapshot struct {
	idx   *Index
	gen   uint64
	cache *lruCache // nil when caching is disabled
}

// Server answers top-K basket queries over the currently published Index.
// Reads are lock-free: the only shared mutable state on the query path is
// one atomic.Pointer load (plus the cache's short mutex when caching is
// on).  Publish is safe to call concurrently with queries from any
// goroutine — that is the hot-reload path.
type Server struct {
	opt    Options
	snap   atomic.Pointer[snapshot]
	met    metrics
	flight *obsv.Flight    // always-on bounded ring of recent spans
	rc     *obsv.RealClock // always non-nil: records into the flight ring
	reqID  atomic.Uint64   // server-local span links for untraced callers
	tasks  chan func()     // nil when Workers == 0
	wg     sync.WaitGroup
	once   sync.Once // guards Close
	slow   func()    // test seam: injected latency on the recommend path
}

// NewServer creates a server with no snapshot; queries fail with
// ErrNoSnapshot until the first Publish.  With opt.Workers > 0 it starts
// the query worker pool; call Close to stop it.
//
// The flight recorder is always on: one real-time span per request and per
// publish (obsv.CatRequest / obsv.CatPublish), timed on an epoch anchored at
// server construction, lands in a bounded ring dumpable via /debug/flight or
// Flight().
func NewServer(opt Options) *Server {
	opt = opt.withDefaults()
	s := &Server{opt: opt, flight: obsv.NewFlight(obsv.ClockReal, 0)}
	s.rc = obsv.NewRealClock(s.flight)
	s.rc.SetMeta("tier", "serve")
	s.met.start = time.Now()
	if opt.Workers > 0 {
		// The pool is real serving concurrency, deliberately outside the
		// simulation's comm layer: queries fan per-item scans out to a
		// fixed set of workers so one slow scan cannot pile goroutines up.
		s.tasks = make(chan func(), 4*opt.Workers)
		for i := 0; i < opt.Workers; i++ {
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				for f := range s.tasks {
					f()
				}
			}()
		}
	}
	return s
}

// Close stops the worker pool, waiting for in-flight tasks.  No queries may
// be issued after Close.  It is a no-op for poolless servers and idempotent.
func (s *Server) Close() {
	s.once.Do(func() {
		if s.tasks != nil {
			close(s.tasks)
			s.wg.Wait()
		}
	})
}

// Publish atomically swaps the serving snapshot to a freshly built one over
// idx, with a new empty query cache, and returns the new snapshot
// generation.  Queries already executing finish against the snapshot they
// loaded; queries starting after the swap see the new index.  Generations
// increase monotonically from 1.
func (s *Server) Publish(idx *Index) uint64 {
	for {
		old := s.snap.Load()
		gen := uint64(1)
		if old != nil {
			gen = old.gen + 1
		}
		if s.publishAt(old, idx, gen) {
			return gen
		}
	}
}

// PublishAt is Publish with a caller-chosen generation.  The distributed
// tier uses it to stamp every node's snapshot with the cluster-wide publish
// generation, so the generations different nodes report for one query are
// directly comparable.  Callers must keep generations strictly increasing;
// a gen at or below the current snapshot's is rejected (returns false).
func (s *Server) PublishAt(idx *Index, gen uint64) bool {
	for {
		old := s.snap.Load()
		if old != nil && gen <= old.gen {
			return false
		}
		if s.publishAt(old, idx, gen) {
			return true
		}
	}
}

// publishAt attempts one snapshot swap from old to a fresh snapshot at gen.
func (s *Server) publishAt(old *snapshot, idx *Index, gen uint64) bool {
	spanStart := s.rc.Now()
	next := &snapshot{idx: idx, gen: gen, cache: newLRU(s.opt.CacheSize)}
	if s.snap.CompareAndSwap(old, next) {
		s.met.reloads.Add(1)
		s.rc.Record("publish", obsv.CatPublish, 0, spanStart, s.rc.Now(),
			obsv.Int("generation", int64(gen)),
			obsv.Int("rules", int64(idx.NumRules())))
		return true
	}
	return false
}

// Flight returns the server's always-on flight recorder — the bounded ring
// of recently completed request/publish spans behind /debug/flight.
func (s *Server) Flight() *obsv.Flight { return s.flight }

// Index returns the currently served index, or nil before the first
// Publish.
func (s *Server) Index() *Index {
	if snap := s.snap.Load(); snap != nil {
		return snap.idx
	}
	return nil
}

// Recommend returns the top-K rules firing for the basket — antecedent
// contained in the basket, consequent offering at least one new item —
// ranked by confidence, then lift, then support, with deterministic
// tie-breaking (rules.RankLess).  k <= 0 selects DefaultK; k is capped at
// MaxK.  The result is the caller's to keep.
//
// Determinism contract: for a fixed snapshot, basket and K, the returned
// ranking is byte-identical across calls, cache hits or misses, pooled or
// inline execution.
func (s *Server) Recommend(basket []itemset.Item, k int) ([]rules.Rule, error) {
	out, _, err := s.RecommendTraced(basket, k, "")
	return out, err
}

// RecommendTraced is Recommend plus two things.  It returns the generation
// of the snapshot the answer was computed from — read atomically with the
// snapshot, so an answer can never carry a newer generation than its
// content (the guarantee the distributed router's publish-coherence logic
// depends on).  And it takes a caller-propagated span link: the request
// span and the latency-histogram exemplar both carry it, so a slow request
// surfaced in /metrics resolves to its causal spans in the flight ring.
// The distributed router passes its fan-out link through here; with an
// empty link the server assigns its own "r<n>" ID.
//
// A request reads the clock twice, at entry and at exit; its latency
// sample, its exemplar and its span are all timed from those two reads.
func (s *Server) RecommendTraced(basket []itemset.Item, k int, link string) ([]rules.Rule, uint64, error) {
	if link == "" {
		var lb [24]byte
		link = string(strconv.AppendUint(append(lb[:0], 'r'), s.reqID.Add(1), 10))
	}
	start := time.Now()
	// A basket already in canonical order (a transaction always is) is used
	// as it is: nothing below keeps b past the return, so only a basket
	// that needs sorting is copied.
	b := itemset.Itemset(basket)
	if !b.Valid() {
		b = itemset.New(basket...)
	}
	cache, results := "off", 0
	var gen uint64
	defer func() {
		end := time.Now()
		s.met.latency.ObserveAt(end.Sub(start), end, func() Exemplar {
			return Exemplar{SpanID: link, BasketHash: BasketHash(b), Cache: cache, Generation: gen}
		})
		s.rc.Record("recommend", obsv.CatRequest, 0, s.rc.At(start), s.rc.At(end),
			obsv.String("link", link),
			obsv.Int("basket", int64(len(basket))),
			obsv.Int("k", int64(k)),
			obsv.String("cache", cache),
			obsv.Int("results", int64(results)))
	}()

	snap := s.snap.Load()
	if snap == nil {
		cache = "error"
		return nil, 0, ErrNoSnapshot
	}
	gen = snap.gen
	if s.slow != nil {
		s.slow()
	}
	if k <= 0 {
		k = DefaultK
	}
	k = min(k, MaxK)

	var kb [4*64 + 4]byte // the key of a basket of up to 64 items, on the stack
	var key []byte
	if snap.cache != nil {
		key = appendCacheKey(kb[:0], b, k)
		if v, ok := snap.cache.get(key); ok {
			s.met.hits.Add(1)
			cache, results = "hit", len(v)
			return append([]rules.Rule(nil), v...), snap.gen, nil
		}
		s.met.misses.Add(1)
		cache = "miss"
	}

	out := s.query(snap.idx, b, k)
	if snap.cache != nil {
		snap.cache.put(string(key), out)
	}
	results = len(out)
	return append([]rules.Rule(nil), out...), snap.gen, nil
}

// query answers a cache miss: Index.Recommend inline, or — with a worker
// pool — one top-k scan per known basket item fanned out across it and
// merged (a basket with at most one known item has nothing to fan out and
// scans inline).  A group is reachable from exactly one item, so the scans
// keep disjoint id sets; ids are ranks, so sorting them together is the
// whole merge and scheduling can reorder the scans without ever reordering
// the answer.
//
//checkinv:hotpath
func (s *Server) query(ix *Index, basket itemset.Itemset, k int) []rules.Rule {
	if s.tasks == nil {
		return ix.Recommend(basket, k)
	}
	b := ix.mark(basket, nil, nil) // read by every worker, so on the heap
	per := make([]topK, len(b.items))
	var wg sync.WaitGroup
	for i, d := range b.items {
		per[i] = newTopK(nil, k)
		if len(per) == 1 {
			ix.scan(d, b, &per[i])
			break
		}
		wg.Add(1)
		s.tasks <- func() { //checkinv:allow hotalloc — fan one query's per-item scans out to the pool; one closure per item is the fan-out itself
			defer wg.Done()
			ix.scan(d, b, &per[i])
		}
	}
	wg.Wait()
	total := 0
	for i := range per {
		total += len(per[i].ids)
	}
	merged := make([]int32, 0, total)
	for i := range per {
		merged = append(merged, per[i].ids...)
	}
	return ix.rank(merged, k)
}

// appendCacheKey appends the canonical cache key to dst: the basket's
// canonical itemset bytes (sorted, deduplicated — so {3,1,1} and {1,3}
// share an entry) followed by K.  Keys are unambiguous because the basket
// encoding has fixed width per item.
func appendCacheKey(dst []byte, basket itemset.Itemset, k int) []byte {
	return binary.BigEndian.AppendUint32(basket.AppendKey(dst), uint32(k))
}
