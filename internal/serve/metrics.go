package serve

import (
	"math/bits"
	"sync/atomic"
	"time"

	"parapriori/internal/obsv"
)

// latencyBuckets is the size of the power-of-two latency histogram: bucket
// 0 counts queries of at most 1 µs, bucket i counts those in (2^(i-1), 2^i]
// microseconds, and the top bucket clamps everything above 2^30 µs ≈ 18
// minutes — more than any query can take.
const latencyBuckets = 32

// Hist is a lock-free power-of-two latency histogram: concurrent writers
// call Observe on the hot path while readers take percentiles without ever
// pausing them.  The zero value is ready to use.  It is the recording half
// of the server's metrics block, exported so the distributed router can
// track its end-to-end latency with the same machinery.
type Hist struct {
	buckets [latencyBuckets]atomic.Int64
	sumUs   atomic.Int64
	ex      exemplars
}

// Observe records one latency sample.
func (h *Hist) Observe(d time.Duration) {
	h.ObserveAt(d, time.Time{}, nil)
}

// ObserveAt records one latency sample of a request that ended at end and
// offers the request its bucket's exemplar slot.  build is called — and the
// Exemplar allocated — only when the request would beat the incumbent
// (empty slot, higher latency, or an incumbent older than exemplarTTL at
// end); ObserveAt then fills in Bucket, LatencyUs and the capture time.  The
// slow tail self-selects: most requests lose the comparison and build
// nothing.  A nil build records the sample alone.
func (h *Hist) ObserveAt(d time.Duration, end time.Time, build func() Exemplar) {
	us := d.Microseconds()
	b := 0 // d ≤ 1 µs
	if d > time.Microsecond {
		b = min(bits.Len64(uint64(d-1)/1000), latencyBuckets-1) // d ≤ 2^b µs, and not ≤ 2^(b-1) µs
	}
	h.buckets[b].Add(1)
	h.sumUs.Add(us)
	if build != nil && beats(h.ex[b].Load(), us, end) {
		ex := build()
		ex.Bucket, ex.LatencyUs, ex.at = b, us, end //checkinv:allow snapshotmut — ex is this call's own copy of build's value; it is published only by offer's CAS below
		h.ex.offer(&ex)
	}
}

// Exemplars returns the live per-bucket exemplars, lowest bucket first,
// each stamped with its age at snapshot time.
func (h *Hist) Exemplars() []Exemplar {
	return h.ex.snapshot()
}

// Counts returns a snapshot of the per-bucket sample counts, index-aligned
// with UppersSeconds; the last count, the clamping top bucket's, has no
// edge there.
func (h *Hist) Counts() []int64 {
	out := make([]int64, latencyBuckets)
	for i := range out {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// SumSeconds returns the total observed latency in seconds — the _sum of the
// Prometheus histogram this Hist renders as.
func (h *Hist) SumSeconds() float64 {
	return float64(h.sumUs.Load()) / 1e6
}

// UppersSeconds returns each bucket's inclusive upper bound in seconds
// (bucket i is ≤ 2^i µs), the `le` labels of the Prometheus rendering.  The
// top bucket clamps and has no finite bound, so there is one edge fewer
// than buckets: its count belongs under +Inf alone.
func (h *Hist) UppersSeconds() []float64 {
	out := make([]float64, latencyBuckets-1)
	for i := range out {
		out[i] = float64(int64(1)<<uint(i)) / 1e6
	}
	return out
}

// Count returns the number of samples observed, the sum of the buckets.
func (h *Hist) Count() int64 {
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Percentile returns the p-th latency percentile in microseconds, as the
// upper bound of the histogram bucket holding that sample's nearest rank
// (obsv.NearestRank) — an overestimate by at most 2×, the usual contract of
// log-bucketed histograms.  It returns 0 before the first sample.
func (h *Hist) Percentile(p float64) float64 {
	var counts [latencyBuckets]int64
	var total int64
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := int64(obsv.NearestRank(p, int(total)))
	var cum int64
	for i, c := range counts {
		cum += c
		if cum >= rank {
			return float64(int64(1) << uint(i))
		}
	}
	return float64(int64(1) << uint(latencyBuckets-1))
}

// reset clears the histogram and its exemplar slots.
func (h *Hist) reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.sumUs.Store(0)
	h.ex.reset()
}

// metrics is the server's lock-free counter block.  Every field is an
// atomic: queries touch it on the hot path, and /metrics reads while
// queries run.  Percentiles come from the bucketed histogram, so a reader
// never pauses the writers.
type metrics struct {
	start   time.Time
	hits    atomic.Int64
	misses  atomic.Int64
	reloads atomic.Int64
	latency Hist
}

// reset clears the counters and restarts the uptime clock.  Benchmarks use
// it to exclude warm-up traffic from the reported percentiles; it must only
// be called while no queries are in flight.
func (m *metrics) reset() {
	m.start = time.Now()
	m.hits.Store(0)
	m.misses.Store(0)
	m.latency.reset()
}

// percentile returns the p-th latency percentile in microseconds.
func (m *metrics) percentile(p float64) float64 { return m.latency.Percentile(p) }

// Metrics is the JSON view served on /metrics and reused by the benchmarks.
type Metrics struct {
	UptimeSeconds      float64 `json:"uptime_seconds"`
	Queries            int64   `json:"queries"`
	QPS                float64 `json:"qps"`
	P50LatencyMicros   float64 `json:"p50_latency_micros"`
	P99LatencyMicros   float64 `json:"p99_latency_micros"`
	CacheHits          int64   `json:"cache_hits"`
	CacheMisses        int64   `json:"cache_misses"`
	CacheHitRate       float64 `json:"cache_hit_rate"`
	SnapshotGeneration uint64  `json:"snapshot_generation"`
	Reloads            int64   `json:"reloads"`
	NumRules           int     `json:"num_rules"`
	// Exemplars are the latency histogram's per-bucket slowest recent
	// requests; each SpanID resolves in the /debug/flight ring.
	Exemplars []Exemplar `json:"exemplars,omitempty"`
}

// Metrics snapshots the server's counters.  Counters are read individually
// without a global lock, so across-counter consistency is approximate under
// load — the standard trade for a zero-contention metrics surface.
func (s *Server) Metrics() Metrics {
	m := Metrics{
		UptimeSeconds:    time.Since(s.met.start).Seconds(),
		Queries:          s.met.latency.Count(),
		P50LatencyMicros: s.met.percentile(0.50),
		P99LatencyMicros: s.met.percentile(0.99),
		CacheHits:        s.met.hits.Load(),
		CacheMisses:      s.met.misses.Load(),
		Reloads:          s.met.reloads.Load(),
		Exemplars:        s.met.latency.Exemplars(),
	}
	if m.UptimeSeconds > 0 {
		m.QPS = float64(m.Queries) / m.UptimeSeconds
	}
	if lookups := m.CacheHits + m.CacheMisses; lookups > 0 {
		m.CacheHitRate = float64(m.CacheHits) / float64(lookups)
	}
	if snap := s.snap.Load(); snap != nil {
		m.SnapshotGeneration = snap.gen
		m.NumRules = snap.idx.NumRules()
	}
	return m
}

// writeProm renders the server's metrics as Prometheus text exposition — the
// content-negotiated alternative to the JSON view on /metrics.
func (s *Server) writeProm(w *obsv.PromWriter) {
	m := s.Metrics()
	w.Gauge("parapriori_uptime_seconds", "Seconds since the server started (or metrics were reset).", m.UptimeSeconds)
	w.Counter("parapriori_queries_total", "Basket queries served.", float64(m.Queries))
	w.Counter("parapriori_cache_hits_total", "Query cache hits.", float64(m.CacheHits))
	w.Counter("parapriori_cache_misses_total", "Query cache misses.", float64(m.CacheMisses))
	w.Counter("parapriori_reloads_total", "Snapshot publishes since start.", float64(m.Reloads))
	w.Gauge("parapriori_snapshot_generation", "Generation of the currently served snapshot (0 before the first publish).", float64(m.SnapshotGeneration))
	w.Gauge("parapriori_rules", "Rules in the currently served index.", float64(m.NumRules))
	w.Histogram("parapriori_query_latency_seconds", "Query latency (power-of-two buckets).",
		s.met.latency.UppersSeconds(), s.met.latency.Counts(), s.met.latency.SumSeconds())
}
