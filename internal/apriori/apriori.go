// Package apriori implements the serial Apriori algorithm of Agrawal &
// Srikant (VLDB '94) exactly as the paper's Section II describes it: level-
// wise candidate generation (apriori_gen), support counting through a
// candidate hash tree, and pruning by minimum support.
//
// The package also exports the building blocks every parallel formulation
// shares — the first pass (FirstPassBlock, FrequentItems) and GenFlat — and
// TreeParts, the number of scans CD's memory-capped counting needs when the
// hash tree does not fit in a processor's memory (Figure 12).  The serial
// miner itself has no memory cap: it counts each pass in one scan.
package apriori

import (
	"math"
	"sort"

	"parapriori/internal/hashtree"
	"parapriori/internal/itemset"
)

// Frequent is a frequent itemset together with its global support count.
type Frequent struct {
	Items itemset.Itemset
	Count int64
}

// Params configures a mining run.
type Params struct {
	// MinSupport is the minimum support threshold as a fraction of the
	// number of transactions (the paper's experiments use 0.1 %–0.025 %).
	// The absolute count threshold is ceil(MinSupport * N), at least 1.
	MinSupport float64
	// Tree shapes the candidate hash trees.
	Tree hashtree.Config
	// MaxPasses, if positive, stops the level-wise loop after computing
	// frequent itemsets of that size.  The paper's scalability experiments
	// (Figures 13–15) measure pass 3 only; MaxPasses makes that expressible.
	MaxPasses int
	// DHPBuckets, if positive, enables the DHP hash filter of Park, Chen &
	// Yu (see dhp.go): the first pass additionally hashes transaction
	// pairs into this many buckets, and size-2 candidates whose bucket
	// count is below the support threshold are pruned before counting.
	// Sound (bucket counts upper-bound pair supports), so results are
	// identical to plain Apriori.  The buckets ride the one first pass, so
	// the filter works over every source and in front of every engine.
	DHPBuckets int
	// Engine selects the support-counting backend (see
	// internal/countengine): "hashtree" (the default), "trie" or "bitset".
	// Every backend produces identical frequent itemsets; they differ in
	// which operations counting spends.
	Engine string
}

// MinCount converts the fractional threshold into the absolute count used
// for pruning a database of n transactions.
func (p Params) MinCount(n int) int64 {
	c := int64(math.Ceil(p.MinSupport * float64(n)))
	if c < 1 {
		c = 1
	}
	return c
}

// PassStats records what one level-wise pass did; the experiment harnesses
// aggregate these into the paper's tables.
type PassStats struct {
	K          int
	Candidates int
	Frequent   int
	Tree       hashtree.Stats
	DHPPruned  int // size-2 candidates removed by the DHP bucket filter
}

// Result is the outcome of a mining run.
type Result struct {
	// Levels[k] holds the frequent itemsets of size k+1, in lexicographic
	// order.
	Levels [][]Frequent
	// Passes holds per-pass statistics, Passes[k] for size k+1.
	Passes []PassStats
	// N is the number of transactions mined.
	N int
	// MinCount is the absolute support threshold that was applied.
	MinCount int64
}

// All returns every frequent itemset of every size, smallest sets first.
func (r *Result) All() []Frequent {
	var out []Frequent
	for _, level := range r.Levels {
		out = append(out, level...)
	}
	return out
}

// NumFrequent returns the total number of frequent itemsets.
func (r *Result) NumFrequent() int {
	n := 0
	for _, level := range r.Levels {
		n += len(level)
	}
	return n
}

// Mine runs the serial Apriori algorithm over the dataset: MineSource over
// the resident source a *Dataset is.
func Mine(data *itemset.Dataset, p Params) (*Result, error) {
	return MineSource(data, p)
}

// Gen is GenFlat with a header per candidate, for callers outside the
// counting path: each candidate is a capacity-clipped view into GenFlat's one
// array, so appending to one never touches its neighbour.
func Gen(prev []itemset.Itemset) []itemset.Itemset {
	if len(prev) == 0 {
		return nil
	}
	return GenFlat(prev).Itemsets()
}

// GenFlat is apriori_gen: it extends the frequent (k-1)-itemsets prev into
// the size-k candidate set, using the join step (merge two frequent sets that
// share their first k-2 items) followed by the subset-prune step (drop any
// candidate with an infrequent (k-1)-subset).  prev must be sorted
// lexicographically; the output is sorted lexicographically, which is what
// makes candidate order — and therefore CD's reducible count vectors —
// identical on every processor.
//
// The candidates are stored flat, stride k, so a call makes two or three
// allocations however many candidates it produces, none of them holding a
// pointer: the prefix-run bounds, the candidates, and a tighter copy of them
// when pruning dropped most joins.  With nothing pruned (always at k = 2,
// where one run covers the whole level) the candidates fill their array.
//
//checkinv:hotpath
func GenFlat(prev []itemset.Itemset) itemset.Flat {
	if len(prev) == 0 {
		return itemset.Flat{}
	}
	k := len(prev[0]) + 1
	// prev is sorted, so sets sharing a (k-2)-prefix are adjacent, and a run
	// of r of them joins into r(r-1)/2 candidates before pruning.  Run r is
	// prev[ends[r-1]:ends[r]].
	ends := make([]int32, 1, len(prev)+1)
	joins := 0
	for i := 0; i < len(prev); {
		j := i + 1
		for j < len(prev) && samePrefix(prev[i], prev[j], k-2) {
			j++
		}
		joins += (j - i) * (j - i - 1) / 2
		ends = append(ends, int32(j))
		i = j
	}
	flat := make([]itemset.Item, joins*k)
	n := 0
	for r := 1; r < len(ends); r++ {
		run := prev[ends[r-1]:ends[r]]
		for i, a := range run {
			for _, b := range run[i+1:] {
				// a < b lexicographically with equal prefixes, so the joined
				// set is a + the last item of b, in order.
				cand := flat[n : n+k]
				for x, it := range a {
					cand[x] = it
				}
				cand[k-1] = b[k-2]
				if k >= 3 && !pruneOK(cand, prev) {
					continue
				}
				n += k
			}
		}
	}
	flat = flat[:n]
	if n < cap(flat)/2 {
		// Pruning removed most joins: do not pin the slack.
		flat = append(make([]itemset.Item, 0, n), flat...)
	}
	return itemset.Flat{K: k, Items: flat}
}

func samePrefix(a, b itemset.Itemset, n int) bool {
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// pruneOK reports whether every (k-1)-subset of cand is in the sorted prev.
// The two subsets obtained by dropping one of the last two items are the
// join parents and need not be rechecked.
func pruneOK(cand itemset.Itemset, prev []itemset.Itemset) bool {
	for skip := 0; skip < len(cand)-2; skip++ {
		at := sort.Search(len(prev), func(i int) bool { return compareSkipping(prev[i], cand, skip) >= 0 })
		if at == len(prev) || compareSkipping(prev[at], cand, skip) != 0 {
			return false
		}
	}
	return true
}

// compareSkipping compares s lexicographically with cand minus its skip-th
// item, without materializing that subset.
func compareSkipping(s, cand itemset.Itemset, skip int) int {
	for i, it := range s {
		c := cand[i]
		if i >= skip {
			c = cand[i+1]
		}
		if it != c {
			if it < c {
				return -1
			}
			return 1
		}
	}
	return 0
}

// TreeParts returns how many hash-tree partitions the size-k candidate set
// needs when a tree shaped by tree may occupy at most memoryBytes (1 when
// memoryBytes is not positive or when the candidates fit).
func TreeParts(numCands, k int, tree hashtree.Config, memoryBytes int) int {
	if memoryBytes <= 0 || numCands == 0 {
		return 1
	}
	need := hashtree.EstimateMemoryBytes(numCands, k, tree)
	parts := (need + memoryBytes - 1) / memoryBytes
	if parts < 1 {
		parts = 1
	}
	if parts > numCands {
		parts = numCands
	}
	return parts
}

// Prune keeps the itemsets meeting the support threshold, in lexicographic
// order.
func Prune(level []Frequent, minCount int64) []Frequent {
	var out []Frequent
	for _, f := range level {
		if f.Count >= minCount {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Items.Compare(out[j].Items) < 0 })
	return out
}

func frequentItemsets(level []Frequent) []itemset.Itemset {
	out := make([]itemset.Itemset, len(level))
	for i, f := range level {
		out[i] = f.Items
	}
	return out
}
