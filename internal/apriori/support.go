package apriori

import "parapriori/internal/itemset"

// SupportTable finds the support count of any frequent itemset of a Result
// by its items, with no string key: each level is stored flat, stride k,
// under an itemset.FlatIndex that gives an itemset's position in it, which
// is its position in the counts too.  It is the lookup rule generation runs
// for every candidate rule it tests, twice for a kept one.
type SupportTable struct {
	levels []supportLevel // levels[k-1] holds the frequent k-itemsets
}

type supportLevel struct {
	index  itemset.FlatIndex
	counts []int64
}

// SupportTable builds the lookup over every frequent itemset of r.
func (r *Result) SupportTable() *SupportTable {
	t := &SupportTable{levels: make([]supportLevel, len(r.Levels))}
	for l, level := range r.Levels {
		flat := itemset.Flat{K: l + 1, Items: make([]itemset.Item, 0, (l+1)*len(level))}
		counts := make([]int64, len(level))
		for i, f := range level {
			flat.Items = append(flat.Items, f.Items...)
			counts[i] = f.Count
		}
		t.levels[l] = supportLevel{index: flat.Index(), counts: counts}
	}
	return t
}

// Lookup returns the support count of s and whether s is frequent.  s is
// only read.
//
//checkinv:hotpath
func (t *SupportTable) Lookup(s itemset.Itemset) (int64, bool) {
	k := len(s)
	if k == 0 || k > len(t.levels) {
		return 0, false
	}
	lv := &t.levels[k-1]
	if at := lv.index.Find(s); at >= 0 {
		return lv.counts[at], true
	}
	return 0, false
}
