package apriori

import (
	"fmt"

	"parapriori/internal/countengine"
	"parapriori/internal/itemset"
)

// MineSource runs the serial Apriori algorithm over a transaction source —
// the one serial pass loop.  The source is scanned block by block, once per
// pass, or once per hash-tree partition under a memory cap, so for a
// streaming source (a partitioned store, a file) the resident set is the
// counting structure plus one block, never the database.  Counts are
// accumulated in candidate order whatever the block boundaries, so the
// results are identical for identical transaction multisets.
//
// What needs the transactions resident is keyed on the source being a
// *Dataset: vertical engines index it once up front instead of re-scanning
// it every pass, and DHPTrim — which rewrites a resident working copy from
// the hash tree's match sets, the very thing a streaming source exists to
// avoid — is rejected on anything else and on any other engine.  DHPBuckets
// is neither: the pair buckets ride the first pass and only remove
// candidates before a counting structure is built.
func MineSource(src itemset.Source, p Params) (*Result, error) {
	data, resident := src.(*itemset.Dataset)
	if p.DHPTrim && p.MemoryBytes > 0 {
		return nil, fmt.Errorf("apriori: DHPTrim is incompatible with a memory cap (multi-scan counting)")
	}
	if !resident && p.DHPTrim {
		return nil, fmt.Errorf("apriori: DHPTrim requires an in-memory dataset, not a streaming source")
	}
	info := src.Info()
	engB, err := countengine.New(p.Engine, countengine.Config{Tree: p.Tree, NumItems: info.NumItems})
	if err != nil {
		return nil, fmt.Errorf("apriori: %w", err)
	}
	if engB.Name() != countengine.Default && p.DHPTrim {
		return nil, fmt.Errorf("apriori: DHPTrim requires the hashtree engine, not %q", engB.Name())
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
	// Only now is every item known to lie inside the vocabulary the
	// prepared index is sized by.
	if prep, ok := engB.(countengine.DatasetPreparer); ok && resident {
		prep.Prepare(data)
	}
	res.Levels = append(res.Levels, f1)
	res.Passes = append(res.Passes, stats1)

	// DHP trimming works on a private copy of the transactions so the
	// caller's dataset is never modified.
	var working []itemset.Transaction
	if p.DHPTrim {
		working = append([]itemset.Transaction(nil), data.Transactions...)
	}

	prev := frequentItemsets(f1)
	for k := 2; len(prev) > 0; k++ {
		if p.MaxPasses > 0 && k > p.MaxPasses {
			break
		}
		cands := Gen(prev)
		dhpPruned := 0
		if k == 2 && dhp != nil {
			cands, dhpPruned = dhp.filterC2(cands, minCount)
		}
		if len(cands) == 0 {
			break
		}
		var level []Frequent
		var stats PassStats
		if p.DHPTrim {
			level, working, stats, err = countAndTrim(working, info.NumItems, k, cands, p)
		} else {
			level, stats, err = countSource(src, info, k, cands, p, engB)
		}
		if err != nil {
			return nil, fmt.Errorf("apriori: pass %d: %w", k, err)
		}
		frequent := Prune(level, minCount)
		stats.K = k
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
	var bytes int64
	riders := append([]func([]itemset.Transaction){func(blk []itemset.Transaction) {
		for _, t := range blk {
			bytes += int64(t.Bytes())
		}
	}}, also...)
	err := src.Blocks(func(blk []itemset.Transaction) error {
		return FirstPassBlock(counts, blk, riders...)
	})
	if err != nil {
		return nil, PassStats{}, err
	}
	f1 := FrequentItems(counts, minCount)
	return f1, PassStats{
		K:            1,
		Candidates:   info.NumItems,
		Frequent:     len(f1),
		TreeParts:    1,
		BytesScanned: bytes,
	}, nil
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

// countSource builds the counting structure(s) for the size-k candidates
// with the run's engine builder and scans the source to compute their
// supports.  It returns every candidate with its count (unpruned), plus the
// pass statistics.  When p.MemoryBytes caps the structure below what the
// candidates need, the candidate set is partitioned and each partition's
// structure is fed by a fresh scan of the source — exactly the multi-scan CD
// regime of Figure 12.
func countSource(src itemset.Source, info itemset.SourceInfo, k int, cands []itemset.Itemset, p Params, engB countengine.Builder) ([]Frequent, PassStats, error) {
	stats := PassStats{K: k, Candidates: len(cands), GenCandidates: len(cands)}
	parts := TreeParts(len(cands), k, p)
	stats.TreeParts = parts

	out := make([]Frequent, len(cands))
	for part := 0; part < parts; part++ {
		lo, hi := part*len(cands)/parts, (part+1)*len(cands)/parts
		if lo == hi {
			continue
		}
		eng, err := engB.NewPass(k, cands[lo:hi])
		if err != nil {
			return nil, stats, err
		}
		if m := eng.MemoryBytes(); m > stats.TreeMemory {
			stats.TreeMemory = m
		}
		if err := src.Blocks(func(blk []itemset.Transaction) error {
			eng.CountBlock(blk, nil)
			return nil
		}); err != nil {
			return nil, stats, err
		}
		counts := eng.Counts()
		stats.BytesScanned += info.Bytes
		stats.Tree.Add(eng.Stats().TreeStats())
		for i := lo; i < hi; i++ {
			out[i] = Frequent{Items: cands[i], Count: counts[i-lo]}
		}
	}
	return out, stats, nil
}
