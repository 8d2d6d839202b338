package itemset

import "fmt"

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

// Itemsets returns one header per itemset, each the view At returns.  It is
// the adapter to the header form, for callers outside the counting path.
func (f Flat) Itemsets() []Itemset {
	out := make([]Itemset, f.Len())
	for i := range out {
		out[i] = f.At(i)
	}
	return out
}
