package apriori

import (
	"fmt"

	"parapriori/internal/itemset"
)

// CountCandidatesNaive computes candidate supports the way Section II's
// "one naive way" describes: every transaction is matched against every
// candidate directly, with no hash tree.  O(N·M) containment tests — the
// baseline that motivates the candidate hash tree, kept here so benchmarks
// can quantify the tree's win and tests can cross-check its counts.
func CountCandidatesNaive(data *itemset.Dataset, k int, cands []itemset.Itemset) ([]Frequent, error) {
	out := make([]Frequent, len(cands))
	for i, c := range cands {
		if len(c) != k {
			return nil, fmt.Errorf("apriori: candidate %v has %d items, want %d", c, len(c), k)
		}
		if !c.Valid() {
			return nil, fmt.Errorf("apriori: candidate %v is not sorted", c)
		}
		out[i].Items = c
	}
	for _, t := range data.Transactions {
		if len(t.Items) < k {
			continue
		}
		for i := range out {
			if t.Items.ContainsAll(out[i].Items) {
				out[i].Count++
			}
		}
	}
	return out, nil
}

// MineNaive runs the full level-wise algorithm with naive counting — same
// candidates, same results, no hash tree.  It exists for differential
// testing and for the hash-tree ablation benchmark; use Mine for real work.
func MineNaive(data *itemset.Dataset, p Params) (*Result, error) {
	minCount := p.MinCount(data.Len())
	res := &Result{N: data.Len(), MinCount: minCount}

	f1, stats1, err := FirstPassSource(data, minCount)
	if err != nil {
		return nil, fmt.Errorf("apriori: naive pass 1: %w", err)
	}
	res.Levels = append(res.Levels, f1)
	res.Passes = append(res.Passes, stats1)

	prev := frequentItemsets(f1)
	for k := 2; len(prev) > 0; k++ {
		if p.MaxPasses > 0 && k > p.MaxPasses {
			break
		}
		cands := Gen(prev)
		if len(cands) == 0 {
			break
		}
		counted, err := CountCandidatesNaive(data, k, cands)
		if err != nil {
			return nil, fmt.Errorf("apriori: naive pass %d: %w", k, err)
		}
		frequent := Prune(counted, minCount)
		res.Levels = append(res.Levels, frequent)
		res.Passes = append(res.Passes, PassStats{K: k, Candidates: len(cands), Frequent: len(frequent)})
		if len(frequent) == 0 {
			break
		}
		prev = frequentItemsets(frequent)
	}
	return res, nil
}
