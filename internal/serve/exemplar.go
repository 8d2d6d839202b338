package serve

import (
	"hash/fnv"
	"strconv"
	"sync/atomic"
	"time"

	"parapriori/internal/itemset"
)

// exemplarTTL bounds how long a past latency spike pins a bucket's exemplar
// slot: after this age any fresh observation in the bucket takes the slot,
// so exemplars describe *recent* slowness, not an all-time record.
const exemplarTTL = 60 * time.Second

// Exemplar pins one histogram bucket's highest-latency recent request to the
// attributes that explain it: the span link resolvable in the flight ring,
// the basket-key hash, the cache outcome, the snapshot generation, and (for
// router exemplars) the fan-out node set.  A slow p99 seen in /metrics
// resolves through SpanID to its causal spans in /debug/flight.
type Exemplar struct {
	SpanID     string   `json:"span_id"`
	Bucket     int      `json:"bucket"`
	LatencyUs  int64    `json:"latency_us"`
	BasketHash string   `json:"basket_hash"`
	Cache      string   `json:"cache,omitempty"`
	Generation uint64   `json:"generation"`
	Nodes      []string `json:"nodes,omitempty"`
	AgeSeconds float64  `json:"age_seconds"`

	at time.Time
}

// BasketHash returns the hex FNV-1a hash of a basket's canonical itemset
// key — a stable, compact identifier linking an exemplar back to the basket
// shape that produced it without storing the basket itself.
func BasketHash(basket itemset.Itemset) string {
	h := fnv.New64a()
	h.Write(basket.AppendKey(make([]byte, 0, 4*len(basket))))
	return strconv.FormatUint(h.Sum64(), 16)
}

// exemplars is the per-bucket slot array riding beside Hist's counters.
type exemplars [latencyBuckets]atomic.Pointer[Exemplar]

// beats reports whether a request of us microseconds ending at end takes a
// slot from its incumbent cur: empty slot, higher latency, or an incumbent
// older than exemplarTTL.
func beats(cur *Exemplar, us int64, end time.Time) bool {
	return cur == nil || us > cur.LatencyUs || end.Sub(cur.at) >= exemplarTTL
}

// offer installs ex in its bucket's slot if it beats the incumbent.  The
// CAS loop is the arbiter: a slot that changed since the caller's own check
// is judged again.
func (xs *exemplars) offer(ex *Exemplar) {
	slot := &xs[ex.Bucket]
	for {
		cur := slot.Load()
		if !beats(cur, ex.LatencyUs, ex.at) {
			return
		}
		if slot.CompareAndSwap(cur, ex) {
			return
		}
	}
}

// snapshot copies the live slots, stamping each copy's age; sorted by
// bucket (slot order), so the output is stable for a quiet histogram.
func (xs *exemplars) snapshot() []Exemplar {
	now := time.Now()
	var out []Exemplar
	for i := range xs {
		if e := xs[i].Load(); e != nil {
			c := *e
			c.AgeSeconds = now.Sub(e.at).Seconds() //checkinv:allow snapshotmut — c is this call's private copy of the loaded exemplar; the published value is untouched
			out = append(out, c)
		}
	}
	return out
}

// reset clears every slot.
func (xs *exemplars) reset() {
	for i := range xs {
		xs[i].Store(nil)
	}
}
