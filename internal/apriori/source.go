package apriori

import (
	"fmt"

	"parapriori/internal/countengine"
	"parapriori/internal/itemset"
)

// MineSource runs the serial Apriori algorithm over a transaction source —
// the one serial pass loop.  The source is scanned block by block, once per
// pass, so for a streaming source (a partitioned store, a file) the resident
// set is the counting structure plus one block, never the database.  Counts
// are accumulated in candidate order whatever the block boundaries, so the
// results are identical for identical transaction multisets.  Every
// source streams through the same engines the grid uses.
//
// DHPBuckets works over every source and engine: the pair buckets ride the
// first pass and only remove candidates before a counting structure is
// built.
func MineSource(src itemset.Source, p Params) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	info := src.Info()
	engB, err := countengine.New(p.Engine, countengine.Config{Tree: p.Tree, NumItems: info.NumItems})
	if err != nil {
		return nil, fmt.Errorf("apriori: %w", err)
	}
	minCount := p.MinCount(info.NumTxns)
	res := &Result{N: info.NumTxns, MinCount: minCount}

	dhp := newPairBuckets(p.DHPBuckets)
	var also []func([]itemset.Transaction)
	if dhp != nil {
		also = append(also, dhp.addBlock)
	}
	f1, stats1, err := FirstPassSource(src, minCount, also...)
	if err != nil {
		return nil, fmt.Errorf("apriori: pass 1: %w", err)
	}
	res.Levels = append(res.Levels, f1)
	res.Passes = append(res.Passes, stats1)

	prev := frequentItemsets(f1)
	for k := 2; len(prev) > 0; k++ {
		if p.MaxPasses > 0 && k > p.MaxPasses {
			break
		}
		cands := GenFlat(prev)
		dhpPruned := 0
		if k == 2 && dhp != nil {
			cands, dhpPruned = dhp.filterC2(cands, minCount)
		}
		if cands.Len() == 0 {
			break
		}
		level, stats, err := countSource(src, k, cands, engB)
		if err != nil {
			return nil, fmt.Errorf("apriori: pass %d: %w", k, err)
		}
		frequent := Prune(level, minCount)
		stats.Frequent = len(frequent)
		stats.DHPPruned = dhpPruned
		res.Levels = append(res.Levels, frequent)
		res.Passes = append(res.Passes, stats)
		if len(frequent) == 0 {
			break
		}
		prev = frequentItemsets(frequent)
	}
	return res, nil
}

// FirstPassSource computes F1, the frequent items, with one streaming
// array-counting scan (no hash tree is needed for size-1 candidates).  An
// item outside the source's declared vocabulary is an
// *itemset.ItemRangeError, one out of order an *itemset.ItemOrderError.
// Whatever else the scan should feed (DHP's pair buckets) rides along in
// also: each is handed a block only once CountItems has accepted it.
func FirstPassSource(src itemset.Source, minCount int64, also ...func(blk []itemset.Transaction)) ([]Frequent, PassStats, error) {
	info := src.Info()
	counts := make([]int64, info.NumItems)
	err := src.Blocks(func(blk []itemset.Transaction) error {
		return FirstPassBlock(counts, blk, also...)
	})
	if err != nil {
		return nil, PassStats{}, err
	}
	f1 := FrequentItems(counts, minCount)
	return f1, PassStats{K: 1, Candidates: info.NumItems, Frequent: len(f1)}, nil
}

// FirstPassBlock is the first pass's step over one block, serial or per
// rank: it adds the block's items to counts and, once CountItems has
// accepted the block, hands it to each rider in turn.  A block CountItems
// refuses reaches no rider, and its error is returned.
func FirstPassBlock(counts []int64, blk []itemset.Transaction, riders ...func(blk []itemset.Transaction)) error {
	if err := itemset.CountItems(counts, blk); err != nil {
		return err
	}
	for _, read := range riders {
		read(blk)
	}
	return nil
}

// FrequentItems is F1 from the first pass's item counts: every item whose
// count reaches minCount, in item order.
func FrequentItems(counts []int64, minCount int64) []Frequent {
	var f1 []Frequent
	for it, c := range counts {
		if c >= minCount {
			f1 = append(f1, Frequent{Items: itemset.Itemset{itemset.Item(it)}, Count: c})
		}
	}
	return f1
}

// countSource builds the size-k candidates' counting structure with the
// run's engine builder and scans the source once to compute their supports.
// It returns every candidate with its count (unpruned), plus the pass
// statistics.
func countSource(src itemset.Source, k int, cands itemset.Flat, engB countengine.Builder) ([]Frequent, PassStats, error) {
	stats := PassStats{K: k, Candidates: cands.Len()}
	eng, err := engB.NewPassFlat(cands)
	if err != nil {
		return nil, stats, err
	}
	if err := src.Blocks(func(blk []itemset.Transaction) error {
		eng.CountBlock(blk, nil)
		return nil
	}); err != nil {
		return nil, stats, err
	}
	counts := eng.Counts() // before Stats: an engine may defer work to Counts
	stats.Tree = eng.Stats().TreeStats()
	out := make([]Frequent, len(counts))
	for i, c := range counts {
		out[i] = Frequent{Items: cands.At(i), Count: c}
	}
	return out, stats, nil
}
