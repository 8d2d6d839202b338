// Package serve is the online half of the pipeline: a low-latency,
// concurrent rule-serving subsystem over the association rules the mining
// side produces.  The batch stage (serial or parallel Apriori plus
// ap-genrules) periodically emits a rule set; this package turns it into an
// immutable in-memory index and answers basket queries
// ("customers with these items in the cart should see what?") while a
// fresh index can be published at any moment with zero downtime.
//
// The moving parts:
//
//   - Index: an immutable antecedent-keyed rule index.  The rules are
//     stored once, sorted by rules.RankLess, so a rule's position — its id —
//     is its rank.  Rules sharing an antecedent form one group, an ascending
//     list of ids; a group is reachable only through the posting run of its
//     antecedent's first (smallest) item, ordered by each group's best id.  A
//     basket query scans one run per distinct basket item the index knows —
//     every antecedent ⊆ basket has its minimum item in the basket, so no
//     basket-subset enumeration (2^|basket| work) is ever needed, and each
//     matching group is visited exactly once.  It marks the basket in a
//     bitmap over the index's item dictionary, keeps the k smallest firing
//     ids in a bounded heap, stops scanning wherever every remaining id is
//     worse than the heap's worst, and builds Rule values for the k
//     survivors only.
//   - Server: holds the current snapshot (index + generation + query
//     cache) behind an atomic.Pointer.  Readers never lock; Publish swaps
//     the whole snapshot, so queries in flight keep the index they started
//     with — the hot-reload protocol.
//   - lruCache: a size-bounded query cache keyed by canonical basket bytes
//     plus K.  The cache lives inside the snapshot, so a swap invalidates
//     it wholesale by construction.
//   - metrics: QPS, latency percentiles, hit rates and snapshot
//     generation, exported as JSON on /metrics.
//
// Unlike the simulation packages, serve runs on the real clock and real
// goroutines: it is a production subsystem, not an emulation.  Its raw
// concurrency sites are individually annotated for the checkinv rawchan
// rule so each one is a deliberate, reviewed decision.
package serve

import (
	"cmp"
	"math"
	"slices"

	"parapriori/internal/itemset"
	"parapriori/internal/rules"
)

// Options configures the server.  The index layout has no options.
type Options struct {
	// Workers is the size of the query worker pool.  Zero serves each
	// query inline on the calling goroutine; with Workers > 0, a cache
	// miss fans one posting-run scan per known basket item out across the
	// pool, and a basket with at most one known item still runs inline.
	Workers int
	// CacheSize bounds the per-snapshot query cache in entries (default
	// 1024).  Negative disables caching.
	CacheSize int
}

const (
	// DefaultK is the result size when a query does not specify K.
	DefaultK = 10
	// MaxK caps a query's K: a client cannot force a full-index sort by
	// asking for everything.  Server and the distributed router clamp with
	// the same constant, so every node of a fleet agrees with its router.
	MaxK = 100
)

// withDefaults returns the options with every zero field replaced by its
// default.
func (o Options) withDefaults() Options {
	if o.CacheSize == 0 {
		o.CacheSize = 1024
	}
	return o
}

// group is one distinct antecedent.  Both per-group arrays are laid out in
// group order, so group g owns Index.ids[groups[g].lo:groups[g+1].lo] and
// Index.ants[groups[g].ant:groups[g+1].ant]; a sentinel entry closes the
// last group.
type group struct {
	lo  int32 // first position of the group's rules in Index.ids/consOff
	ant int32 // first position of the group's antecedent in Index.ants
}

// Index is an immutable rule index, ready for concurrent basket queries.
// Build one with NewIndex and install it on a Server with Publish.
//
// The rules are stored once, in serving-rank order (rules.RankLess), so a
// rule's position in that slice — its id — is its rank: a smaller id always
// outranks a larger one, and a query ranks by comparing int32s.
type Index struct {
	rules  []rules.Rule // rank order; rules[id]
	groups []group      // len = number of groups + 1
	// ids lists each group's rule ids, ascending within the group.
	ids []int32
	// consOff/cons hold, for the rule at position p of ids, its consequent
	// in dictionary ids: cons[consOff[p]:consOff[p+1]].
	consOff []int32
	cons    []int32
	ants    []int32 // every group's antecedent in dictionary ids
	// dict numbers the items the rules mention 0..len(dict)-1, so a basket
	// becomes a bitmap however sparse, large or negative the item ids are.
	dict map[itemset.Item]int32
	// off is the first-item inverted index (CSR).  Groups are numbered by
	// (first item, best rule id), so the groups whose antecedent starts at
	// dictionary item d are the run off[d]..off[d+1] of group numbers, in
	// ascending order of their best (smallest) rule id.
	off []int32
}

// rankKey is what the build sorts: the three measures RankLess compares
// first, and where the rule is in the input — to compare itemsets on the
// rare full tie, and to fetch the rule once its rank is known.
type rankKey struct {
	conf, lift, sup float64
	at              int32
}

// NewIndex builds an index over the rule set.  The rules are rank-sorted
// once (rules.RankLess) and stored in that order; one pass over them forms
// the antecedent groups — so a group's ids ascend, and groups are found in
// the order of their best id — and a counting sort files each group under
// its antecedent's first item.  Construction is deterministic for a given
// rule set whatever the input order, and allocates less than two copies of
// the input.  No option shapes the index; callers pass the serving options
// they hold.
func NewIndex(rs []rules.Rule, _ Options) *Index {
	n := len(rs)
	keys := make([]rankKey, n)
	for i := range rs {
		keys[i] = rankKey{rs[i].Confidence, rs[i].Lift, rs[i].Support, int32(i)}
	}
	slices.SortFunc(keys, func(a, b rankKey) int {
		// The measures descend, hence b before a.
		if c := cmp.Compare(b.conf, a.conf); c != 0 {
			return c
		}
		if c := cmp.Compare(b.lift, a.lift); c != 0 {
			return c
		}
		if c := cmp.Compare(b.sup, a.sup); c != 0 {
			return c
		}
		ra, rb := &rs[a.at], &rs[b.at]
		if c := ra.Antecedent.Compare(rb.Antecedent); c != 0 {
			return c
		}
		return ra.Consequent.Compare(rb.Consequent)
	})
	all := make([]rules.Rule, n)
	for id, k := range keys {
		all[id] = rs[k.at]
	}

	// Pass 1: chain the rules of each antecedent in id order, and number the
	// items.  An open-addressed table over the antecedents holds the last
	// rule id seen for each, so a rule is linked behind its predecessor; the
	// first rule of a chain — its head — is the group's best.  Only sizes are
	// learnt here, which lets every array below be allocated exactly once.
	const none = -1
	ix := &Index{rules: all, dict: make(map[itemset.Item]int32)}
	number := func(s itemset.Itemset) {
		for _, it := range s {
			if _, ok := ix.dict[it]; !ok {
				ix.dict[it] = int32(len(ix.dict))
			}
		}
	}
	slots := make([]int32, 2*n)
	for i := range slots {
		slots[i] = none
	}
	next := make([]int32, n)
	heads := make([]int32, 0, n)
	nAnt, nCons := 0, 0
	for id := range all {
		ant := all[id].Antecedent
		next[id] = none
		nCons += len(all[id].Consequent)
		number(all[id].Consequent)
		s := int((hashItems(ant) >> 32) * uint64(len(slots)) >> 32)
		for ; ; s++ {
			if s == len(slots) {
				s = 0
			}
			if slots[s] == none {
				heads = append(heads, int32(id))
				nAnt += len(ant)
				number(ant)
				break
			}
			if all[slots[s]].Antecedent.Equal(ant) {
				next[slots[s]] = int32(id)
				break
			}
		}
		slots[s] = int32(id)
	}

	// Order the groups by (first item, best id) with a counting sort of the
	// heads, which are in best-id order already: the groups starting at item
	// d become the contiguous run off[d]..off[d+1] of group numbers.  There
	// is one more bucket than the dictionary has items, for a group with an
	// empty antecedent: it fires for no basket (rule generation never emits
	// one), but its rules are still laid out.
	off := make([]int32, len(ix.dict)+2)
	bucketOf := slots[:len(heads)] // the table is dead; its memory is not
	for g, head := range heads {
		ant := all[head].Antecedent
		b := int32(len(ix.dict))
		if len(ant) > 0 {
			b = ix.dict[ant[0]]
		}
		bucketOf[g] = b
		off[b+1]++
	}
	for b := 1; b < len(off); b++ {
		off[b] += off[b-1]
	}
	order := make([]int32, len(heads))
	for g, head := range heads {
		order[off[bucketOf[g]]] = head
		off[bucketOf[g]]++
	}
	copy(off[1:], off)
	off[0] = 0
	ix.off = off

	// Pass 2: lay every group out in that order, so a scan of one posting
	// list reads groups, ants, ids and cons front to back.
	ix.groups = make([]group, 0, len(heads)+1)
	ix.ants = make([]int32, 0, nAnt)
	ix.ids = make([]int32, 0, n)
	ix.consOff = make([]int32, 0, n+1)
	ix.cons = make([]int32, 0, nCons)
	for _, head := range order {
		ix.groups = append(ix.groups, group{lo: int32(len(ix.ids)), ant: int32(len(ix.ants))})
		for _, it := range all[head].Antecedent {
			ix.ants = append(ix.ants, ix.dict[it])
		}
		for id := head; id != none; id = next[id] {
			ix.ids = append(ix.ids, id)
			ix.consOff = append(ix.consOff, int32(len(ix.cons)))
			for _, it := range all[id].Consequent {
				ix.cons = append(ix.cons, ix.dict[it])
			}
		}
	}
	ix.groups = append(ix.groups, group{lo: int32(len(ix.ids)), ant: int32(len(ix.ants))})
	ix.consOff = append(ix.consOff, int32(len(ix.cons)))
	return ix
}

// NumRules returns the number of rules in the index.
func (ix *Index) NumRules() int { return len(ix.rules) }

// All returns every rule in serving-rank order.  It is the index's own
// storage; callers must not modify it.
func (ix *Index) All() []rules.Rule { return ix.rules }

// basketBits is a basket translated for the scan: the dictionary ids of the
// items the index knows, and the same set as a bitmap, so that "is this item
// in the basket" is one bit test.  Items no rule mentions can match nothing
// and are dropped.
type basketBits struct {
	items []int32
	bits  []uint64
}

func (b *basketBits) has(d int32) bool { return b.bits[d>>6]&(1<<(d&63)) != 0 }

// mark translates a basket into buffers the caller provides; items may be
// unsorted or repeated.  bits must be zero; it is replaced when the
// dictionary does not fit in it.
//
//checkinv:hotpath
func (ix *Index) mark(basket []itemset.Item, items []int32, bits []uint64) basketBits {
	if words := (len(ix.dict) + 63) / 64; words > len(bits) {
		// The one allocation of the inline query path besides its answer: a
		// dictionary of more items than the caller's stack bitmap covers.
		bits = make([]uint64, words)
	}
	b := basketBits{items: items, bits: bits}
	for _, it := range basket {
		if d, ok := ix.dict[it]; ok && !b.has(d) {
			b.bits[d>>6] |= 1 << (d & 63)
			b.items = append(b.items, d)
		}
	}
	return b
}

// topK keeps the k smallest rule ids offered to it — the k best-ranked —
// as a max-heap once k are held; a negative k keeps every id.  k = 0 keeps
// one: RankTruncate(matches, 0) is empty but not nil when something fires,
// and one kept id, cut by rank, tells the two apart.
type topK struct {
	ids []int32
	k   int
	// limit is the largest id that can still enter: every id until the heap
	// is full, then the heap's worst.  It only ever falls, which is what
	// makes leaving a scan at the first id above it exact.
	limit int32
}

func newTopK(buf []int32, k int) topK {
	if k == 0 {
		k = 1
	}
	return topK{ids: buf[:0], k: k, limit: math.MaxInt32}
}

// push offers an id not above limit (ids are distinct, so below it once
// the heap is full).
//
//checkinv:hotpath
func (t *topK) push(id int32) {
	n := len(t.ids)
	if n == t.k {
		t.ids[0] = id
		siftDown(t.ids, 0)
		t.limit = t.ids[0]
		return
	}
	if n == cap(t.ids) {
		// Grown by hand: storing append's result through t makes the
		// compiler move the caller's stack buffer to the heap.
		grown := make([]int32, n, 2*n+16)
		copy(grown, t.ids)
		t.ids = grown
	}
	t.ids = t.ids[:n+1]
	t.ids[n] = id
	if n+1 == t.k {
		for i := t.k/2 - 1; i >= 0; i-- {
			siftDown(t.ids, i)
		}
		t.limit = t.ids[0]
	}
}

// siftDown restores the max-heap property below position i.
func siftDown(h []int32, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1] > h[c] {
			c++
		}
		if h[i] >= h[c] {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// scan offers to t every rule in basket item d's posting run that fires for
// the basket and can still reach the top k: the antecedent is contained in
// the basket and the consequent recommends at least one item the basket
// does not already hold.  The run holds the groups whose antecedent
// *starts* at d, so over the basket's items a group is tested once and
// only when its cheapest necessary condition holds.  Both loops stop early,
// exactly: a run ascends by best id and a group's ids ascend, so past the
// first id above t.limit — which only falls — nothing can enter.
//
//checkinv:hotpath
func (ix *Index) scan(d int32, b basketBits, t *topK) {
nextGroup:
	for g := ix.off[d]; g < ix.off[d+1]; g++ {
		from, to := ix.groups[g], ix.groups[g+1]
		if ix.ids[from.lo] > t.limit {
			return
		}
		for _, a := range ix.ants[from.ant+1 : to.ant] {
			if !b.has(a) {
				continue nextGroup
			}
		}
	nextRule:
		for p := from.lo; p < to.lo; p++ {
			if ix.ids[p] > t.limit {
				break
			}
			for _, c := range ix.cons[ix.consOff[p]:ix.consOff[p+1]] {
				if !b.has(c) {
					t.push(ix.ids[p])
					continue nextRule
				}
			}
		}
	}
}

// rank turns the ids a scan kept into its answer: sorted ascending — which
// is serving-rank order — cut to k, and only then materialised as rules.
func (ix *Index) rank(ids []int32, k int) []rules.Rule {
	if len(ids) == 0 {
		return nil
	}
	slices.Sort(ids)
	if k >= 0 && len(ids) > k {
		ids = ids[:k]
	}
	out := make([]rules.Rule, len(ids))
	for i, id := range ids {
		out[i] = ix.rules[id]
	}
	return out
}

// Recommend answers a basket query against this index alone — no cache, no
// worker pool — returning at most k rules in serving-rank order; a negative
// k returns every firing rule.  It is the Server's inline query path, and
// what the oracle tests exercise.  The scan keeps k rule ids, not rules: the
// basket bitmap, the id heap and the basket's dictionary ids live in this
// frame, and the answer is the only allocation.
//
//checkinv:hotpath
func (ix *Index) Recommend(basket itemset.Itemset, k int) []rules.Rule {
	var (
		items [64]int32
		bits  [64]uint64
		heap  [128]int32
	)
	b := ix.mark(basket, items[:0], bits[:])
	t := newTopK(heap[:], k)
	for _, d := range b.items {
		ix.scan(d, b, &t)
	}
	return ix.rank(t.ids, k)
}

// RankTruncate sorts matches into serving-rank order and truncates to k; a
// negative k keeps them all.  RankLess is a strict total order, so the
// result is deterministic whatever order the matches arrive in — the
// property that lets the distributed router merge per-node top-K lists into
// a global top-K bit-identical to a single-node scan.  The index itself
// ranks by comparing rule ids (see Index), and the router merges lists
// that arrive ranked; this is the ranking of a rule list in any order.
//
//checkinv:hotpath
func RankTruncate(matches []rules.Rule, k int) []rules.Rule {
	slices.SortFunc(matches, rankCompare)
	if k >= 0 && len(matches) > k {
		matches = matches[:k]
	}
	return matches
}

// rankCompare is rules.RankLess as a three-way comparison.
func rankCompare(a, b rules.Rule) int {
	switch {
	case rules.RankLess(a, b):
		return -1
	case rules.RankLess(b, a):
		return 1
	}
	return 0
}

// hashItems hashes an antecedent for the build's chaining table with a
// splitmix64 absorb-per-byte construction over its canonical key
// (itemset.Key: four big-endian bytes an item).  The seed is the one the
// index's retired shard placement defaulted to, so the table probes as it
// did then.
func hashItems(s itemset.Itemset) uint64 {
	h := uint64(0x5ca1ab1e0ddba11)
	for _, it := range s {
		for shift := 24; shift >= 0; shift -= 8 {
			h = splitmix64(h ^ uint64(byte(uint32(it)>>shift)))
		}
	}
	return splitmix64(h)
}

// splitmix64 is the finalizer of Steele et al.'s SplitMix64 generator, the
// same mixer the fault-injection layer uses for its per-message decisions.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
