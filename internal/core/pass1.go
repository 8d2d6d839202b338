package core

import (
	"fmt"

	"parapriori/internal/apriori"
	"parapriori/internal/cluster"
	"parapriori/internal/itemset"
	"parapriori/internal/obsv"
)

// firstPass computes the globally frequent items F1.  Every formulation
// does this identically: each processor array-counts one scan of its own
// transactions and a global reduction sums the per-item counts (there is no
// hash tree for k = 1).  Every processor ends the pass with the identical,
// item-ordered F1.
func (r *run) firstPass(p *cluster.Proc, tr *procTrace) error {
	start := p.Clock()

	counts := make([]int64, r.numItems)
	var items int64
	addItems := func(blk []itemset.Transaction) {
		for _, t := range blk {
			items += int64(len(t.Items))
		}
	}
	var bad error // the first item out of range or out of order
	st := r.openStream(p, false)
	defer st.close() // a crash panics out of the scan
	err := scan(p, st, func(blk []itemset.Transaction) {
		if bad == nil {
			bad = apriori.FirstPassBlock(counts, blk, addItems)
		}
	})
	read := st.close()
	if err == nil {
		err = bad
	}
	if err != nil {
		return err
	}
	chargeScan(p, items, "scan")
	countStart := p.Clock()
	r.sec(p, "scan", start, scanArgs(read.Bytes, obsv.Int("k", 1))...)

	global := r.world.AllReduceInt64(p, "f1", counts)
	r.sec(p, "reduce", countStart, obsv.Int("k", 1))

	f1 := apriori.FrequentItems(global, r.minCount)
	tr.passes = append(tr.passes, passLocal{
		k:          1,
		candidates: r.numItems,
		frequent:   len(f1),
		gridRows:   1,
		gridCols:   r.np(),
		treeParts:  1,
		countTime:  countStart - start,
		clockStart: start,
		clockEnd:   p.Clock(),
		read:       read,
	})
	return r.endPass(p, tr, f1)
}

// scanArgs appends the bytes a scan read from disk to its section's span
// args; a scan that read no blocks (the resident backend) adds nothing.
func scanArgs(readBytes int64, args ...obsv.Attr) []obsv.Attr {
	if readBytes > 0 {
		args = append(args, obsv.Int("read_bytes", readBytes))
	}
	return args
}

// exchangeFrequent runs the all-to-all broadcast of locally frequent
// itemsets over the given communicator and returns the merged, sorted
// global level, down a grid column.
func exchangeFrequent(p *cluster.Proc, cm *cluster.Comm, tag string, local []apriori.Frequent) []apriori.Frequent {
	gathered := cm.AllGather(p, tag, local, frequentBytes(local))
	var merged []apriori.Frequent
	for _, g := range gathered {
		part, ok := g.Payload.([]apriori.Frequent)
		if !ok {
			panic(fmt.Sprintf("core: exchangeFrequent %q: unexpected payload %T", tag, g.Payload))
		}
		merged = append(merged, part...)
	}
	sortFrequent(merged)
	return merged
}

// pruneLocal keeps the candidates whose global counts meet the threshold.
// The frequent sets are views into cands, in a slice of their exact size.
func pruneLocal(cands itemset.Flat, counts []int64, minCount int64) []apriori.Frequent {
	n := 0
	for _, c := range counts {
		if c >= minCount {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]apriori.Frequent, 0, n)
	for i, c := range counts {
		if c >= minCount {
			out = append(out, apriori.Frequent{Items: cands.At(i), Count: c})
		}
	}
	return out
}
