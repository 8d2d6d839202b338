package apriori

import "parapriori/internal/itemset"

// SupportTable finds the support count of any frequent itemset of a Result
// by its items, with no string key: each level is stored flat, stride k,
// under an open-addressed table of indices into it.  It is the lookup rule
// generation runs for every candidate rule it tests, twice for a kept one.
type SupportTable struct {
	levels []supportLevel // levels[k-1] holds the frequent k-itemsets
}

type supportLevel struct {
	items  []itemset.Item // itemset i is items[i*k : i*k+k]
	counts []int64
	slots  []int32 // 1 + the index of the itemset hashed there, 0 when empty
}

// SupportTable builds the lookup over every frequent itemset of r.
func (r *Result) SupportTable() *SupportTable {
	t := &SupportTable{levels: make([]supportLevel, len(r.Levels))}
	for l, level := range r.Levels {
		k := l + 1
		lv := &t.levels[l]
		lv.items = make([]itemset.Item, 0, k*len(level))
		lv.counts = make([]int64, len(level))
		// At most half full, so a miss ends at an empty slot soon.
		size := 2
		for size < 2*len(level) {
			size *= 2
		}
		lv.slots = make([]int32, size)
		for i, f := range level {
			lv.items = append(lv.items, f.Items...)
			lv.counts[i] = f.Count
			s := hashItems(f.Items) & uint64(size-1)
			for lv.slots[s] != 0 {
				s = (s + 1) & uint64(size-1)
			}
			lv.slots[s] = int32(i + 1)
		}
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
	mask := uint64(len(lv.slots) - 1)
	for h := hashItems(s) & mask; ; h = (h + 1) & mask {
		at := int(lv.slots[h]) - 1
		if at < 0 {
			return 0, false
		}
		if itemset.Itemset(lv.items[at*k : at*k+k]).Equal(s) {
			return lv.counts[at], true
		}
	}
}

// hashItems mixes an itemset's items, multiply-xorshift per item.
func hashItems(s itemset.Itemset) uint64 {
	h := uint64(len(s))
	for _, it := range s {
		h = (h ^ uint64(uint32(it))) * 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	return h ^ h>>32
}
