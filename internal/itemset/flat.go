package itemset

import (
	"fmt"
	"math"
)

// Flat is a list of itemsets of one size K stored back to back in a single
// item array: itemset i is Items[i*K : (i+1)*K].  It is the form a pass's
// candidates take from generation through partitioning into the counting
// engines.  A []Itemset spends a 24-byte slice header per itemset, which the
// runtime must zero, write-barrier and scan; a Flat is one pointer-free array
// however many itemsets it holds.
type Flat struct {
	K     int
	Items []Item
}

// FlatOf copies sets, each of exactly k ≥ 1 items, into one Flat.  It is the
// adapter from the header form; a set of any other size is an error.
func FlatOf(k int, sets []Itemset) (Flat, error) {
	if k < 1 && len(sets) > 0 {
		return Flat{}, fmt.Errorf("itemsets of %d items cannot be stored flat", k)
	}
	f := Flat{K: k, Items: make([]Item, 0, k*len(sets))}
	for _, s := range sets {
		if len(s) != k {
			return Flat{}, fmt.Errorf("itemset %v has %d items, want %d", s, len(s), k)
		}
		f.Items = append(f.Items, s...)
	}
	return f, nil
}

// Len returns the number of itemsets.
func (f Flat) Len() int {
	if f.K <= 0 {
		return 0
	}
	return len(f.Items) / f.K
}

// At returns itemset i as a view into Items.  Its capacity is clipped to its
// length, so appending to it copies instead of overwriting itemset i+1.
func (f Flat) At(i int) Itemset {
	return Itemset(f.Items[i*f.K : (i+1)*f.K : (i+1)*f.K])
}

// Slice returns itemsets i through j-1, sharing Items.
func (f Flat) Slice(i, j int) Flat {
	return Flat{K: f.K, Items: f.Items[i*f.K : j*f.K : j*f.K]}
}

// Check verifies that every itemset of f is a set as the counting engines
// take it: items non-negative and strictly ascending.  It returns one more
// than the largest item (0 for no items), the span the engines size their
// per-item tables by, or an error naming the first itemset that is not such
// a set.
//
//checkinv:hotpath
func (f Flat) Check() (span int, err error) {
	k, items := f.K, f.Items
	maxItem := Item(-1)
	for i, m := 0, f.Len(); i < m; i++ {
		c := items[i*k : (i+1)*k]
		if c[0] < 0 {
			return 0, notASet(f, i)
		}
		for j := 1; j < k; j++ {
			if c[j-1] >= c[j] {
				return 0, notASet(f, i)
			}
		}
		maxItem = max(maxItem, c[k-1])
	}
	return int(maxItem) + 1, nil
}

func notASet(f Flat, i int) error {
	return fmt.Errorf("candidate %v is not a sorted set of non-negative items", f.At(i))
}

// Itemsets returns one header per itemset, each the view At returns.  It is
// the adapter to the header form, for callers outside the counting path.
func (f Flat) Itemsets() []Itemset {
	out := make([]Itemset, f.Len())
	for i := range out {
		out[i] = f.At(i)
	}
	return out
}

// FlatIndex finds an itemset of a Flat by its items, with no string key: an
// open-addressed table of positions, at most half full so that a miss ends
// at an empty slot soon, probed linearly from the itemset's Hash.
type FlatIndex struct {
	set   Flat
	slots []int32 // 1 + the position of the itemset hashed there, 0 when empty
}

// Index builds the lookup over the itemsets of f, which it shares.
func (f Flat) Index() FlatIndex {
	size := 2
	for size < 2*f.Len() {
		size *= 2
	}
	x := FlatIndex{set: f, slots: make([]int32, size)}
	for i := 0; i < f.Len(); i++ {
		if h := x.slot(f.At(i)); x.slots[h] == 0 { // a repeat keeps the first
			x.slots[h] = int32(i + 1)
		}
	}
	return x
}

// Find returns the position in the indexed Flat of the first itemset equal
// to s, or -1 when there is none.  s is only read.
func (x *FlatIndex) Find(s Itemset) int {
	if len(s) != x.set.K {
		return -1
	}
	return int(x.slots[x.slot(s)]) - 1
}

// slot returns the slot of the itemset equal to s, or the empty slot where
// s would go.
//
//checkinv:hotpath
func (x *FlatIndex) slot(s Itemset) uint64 {
	mask := uint64(len(x.slots) - 1)
	h := s.Hash() & mask
	for x.slots[h] != 0 && !x.set.At(int(x.slots[h]-1)).Equal(s) {
		h = (h + 1) & mask
	}
	return h
}

// NoPair marks an absent entry of the tables PairIndex returns.  It is so
// negative that its sum with any present entry (each below 2^30 in
// magnitude) stays negative.
const NoPair = math.MinInt32 / 2

// PairIndex recognises a dense C₂ and returns its direct index, or reports
// false.  f holds pairs (K = 2) of items in [0, numItems).  It verifies
// rather than assumes what pass 2 produces (C₂ = all pairs of F₁, shared out
// by whole first-item rows): with U the items of f, the pairs of each first
// item a are contiguous in f and are exactly {a, u} for every u in U above a,
// in ascending order.  Rows may come in any order.  Then rank[it] is item
// it's rank in U, and pair {a, b} is pair base[a]+rank[b] of f.  Both tables
// are indexed by item; an entry is NoPair for an item that heads no row
// (base) or is not in U (rank).  Rows with holes (a round-robin share, a
// DHP-filtered C₂, a row cut across shares), repeated or unordered pairs, an
// empty f and any K but 2 all fail.
//
//checkinv:hotpath
func (f Flat) PairIndex(numItems int) (rank, base []int32, ok bool) {
	m := f.Len()
	if f.K != 2 || m == 0 {
		return nil, nil, false
	}
	items := f.Items
	tables := make([]int32, 2*numItems)
	for i := range tables {
		tables[i] = NoPair
	}
	base, rank = tables[:numItems], tables[numItems:]
	for _, it := range items {
		rank[it] = 0
	}
	size := int32(0) // |U| once the loop ends
	for it, r := range rank {
		if r == 0 {
			rank[it] = size
			size++
		}
	}
	for i := 0; i < m; {
		a := items[2*i]
		n := int(size - rank[a] - 1) // items of U above a; items[2i+1] is one
		if base[a] != NoPair || i+n > m {
			return nil, nil, false
		}
		for j := 0; j < n; j++ {
			if items[2*(i+j)] != a || rank[items[2*(i+j)+1]] != rank[a]+1+int32(j) {
				return nil, nil, false
			}
		}
		base[a] = int32(i) - rank[a] - 1
		i += n
	}
	return rank, base, true
}
