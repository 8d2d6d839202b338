package apriori

import "parapriori/internal/itemset"

// DHP support: Park, Chen & Yu's "effective hash-based algorithm for mining
// association rules" [15 in the paper] augments Apriori's first pass with a
// hash table over the *pairs* occurring in each transaction.  A bucket's
// count is an upper bound on the support of every pair hashing into it, so
// any size-2 candidate whose bucket is below the minimum support can be
// pruned before the counting structure for pass 2 is ever built — whichever
// engine builds it, and whatever source the first pass scanned.  PDM — the
// parallel algorithm Section III-E relates to CD — is the parallel
// formulation of exactly this idea.
//
// Pass 2 is where the technique earns its keep (C2 is the largest candidate
// set in most workloads, including this paper's Table II), so, like the
// original, we hash pairs only.

// pairBuckets is the DHP hash table: counts of transaction pairs by bucket.
type pairBuckets struct {
	counts []int64
}

func newPairBuckets(n int) *pairBuckets {
	if n <= 0 {
		return nil
	}
	return &pairBuckets{counts: make([]int64, n)}
}

// bucket maps a pair to its bucket the way the DHP paper does: an
// order-based polynomial hash.
func (b *pairBuckets) bucket(x, y itemset.Item) int {
	return int((uint64(x)*131071 + uint64(y)) % uint64(len(b.counts)))
}

// addBlock hashes every pair of every transaction of the block.  It is the
// first pass's second reader: CountItems has already found the block's items
// inside the vocabulary and in order.
func (b *pairBuckets) addBlock(blk []itemset.Transaction) {
	for _, t := range blk {
		items := t.Items
		for i := 0; i < len(items); i++ {
			for j := i + 1; j < len(items); j++ {
				b.counts[b.bucket(items[i], items[j])]++
			}
		}
	}
}

// admits reports whether a size-2 candidate could still be frequent.
func (b *pairBuckets) admits(c itemset.Itemset, minCount int64) bool {
	return b.counts[b.bucket(c[0], c[1])] >= minCount
}

// filterC2 drops the size-2 candidates whose DHP bucket cannot reach the
// minimum support, in place, returning the survivors and the number pruned.
func (b *pairBuckets) filterC2(cands itemset.Flat, minCount int64) (itemset.Flat, int) {
	kept := itemset.Flat{K: cands.K, Items: cands.Items[:0]}
	for i := 0; i < cands.Len(); i++ {
		if c := cands.At(i); b.admits(c, minCount) {
			kept.Items = append(kept.Items, c...)
		}
	}
	return kept, cands.Len() - kept.Len()
}
