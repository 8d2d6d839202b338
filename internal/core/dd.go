package core

import (
	"fmt"

	"parapriori/internal/cluster"
	"parapriori/internal/hashtree"
	"parapriori/internal/itemset"
	"parapriori/internal/obsv"
	"parapriori/internal/partition"
)

// ddBody is the SPMD program of the Data Distribution algorithm [6] and of
// the paper's DD+comm ablation.  Candidates are partitioned round-robin —
// which balances counts but scatters first items, so no root filtering is
// possible — and every processor processes *all* N transactions against its
// M/P candidates, the redundant work Section III-B analyzes.
//
// Plain DD moves the database with the unstructured all-to-all of [6]:
// every page is sent point-to-point to every other processor, a pattern
// whose messages cross shared links (modeled as ring-distance congestion).
// DDComm replaces only the data movement with IDD's ring pipeline, keeping
// the round-robin partitioning — exactly the "DD+comm" series of Figure 10
// that isolates how much of IDD's win is communication vs partitioning.
func (r *run) ddBody(p *cluster.Proc) error {
	tr := &r.perProc[p.ID()]
	prev := r.firstPass(p, tr)
	tr.levels = append(tr.levels, prev)
	r.passSpan(p, tr)

	shard := r.shards[p.ID()]
	for k := 2; len(prev) > 0; k++ {
		if r.prm.Apriori.MaxPasses > 0 && k > r.prm.Apriori.MaxPasses {
			break
		}
		clockStart := p.Clock()

		cands := r.candidates(k, prev)
		chargeGen(p, len(cands))
		r.sec(p, "candidate gen", clockStart, obsv.Int("k", int64(k)))
		if len(cands) == 0 {
			break
		}

		parts := partition.RoundRobin(cands, r.prm.P)
		myCands := parts[p.ID()]
		counts := make([]int, r.prm.P)
		for i, part := range parts {
			counts[i] = len(part)
		}
		candImbalance := partition.Imbalance(counts)

		buildStart := p.Clock()
		tree, err := hashtree.New(k, myCands, r.prm.Apriori.Tree)
		if err != nil {
			return fmt.Errorf("pass %d: %w", k, err)
		}
		chargeBuild(p, tree.Stats().Inserts)
		r.sec(p, "build", buildStart, obsv.Int("k", int64(k)))

		computeBefore := p.Stats().ComputeTime
		process := func(page []itemset.Transaction) {
			if len(page) == 0 || tree.Len() == 0 {
				return
			}
			before := tree.Stats()
			for _, t := range page {
				tree.Subset(t.Items, nil)
			}
			chargeSubset(p, treeDelta(before, tree.Stats()))
		}

		countStart := p.Clock()
		pages := shard.Pages(r.prm.PageBytes)
		p.ReadIO(int64(shard.Bytes()), "io")
		var bytesMoved int64
		if r.prm.Algo == DDComm {
			bytesMoved = ringCount(p, r.world, fmt.Sprintf("k%d/ring", k), pages, process)
		} else {
			bytesMoved = r.allToAllCount(p, fmt.Sprintf("k%d/a2a", k), pages, process)
		}
		countTime := p.Stats().ComputeTime - computeBefore
		r.sec(p, "count", countStart, obsv.Int("k", int64(k)))

		exStart := p.Clock()
		frequentLocal := pruneLocal(myCands, tree.Counts(), r.minCount)
		level := exchangeFrequent(p, r.world, fmt.Sprintf("k%d/freq", k), frequentLocal)
		r.sec(p, "exchange", exStart, obsv.Int("k", int64(k)))

		tr.passes = append(tr.passes, passLocal{
			k:             k,
			candidates:    len(cands),
			localCands:    len(myCands),
			frequent:      len(level),
			gridRows:      r.prm.P,
			gridCols:      1,
			treeParts:     1,
			tree:          tree.Stats(),
			bytesMoved:    bytesMoved,
			countTime:     countTime,
			clockStart:    clockStart,
			clockEnd:      p.Clock(),
			candImbalance: candImbalance,
		})
		tr.levels = append(tr.levels, level)
		r.passSpan(p, tr)
		prev = level
	}
	return nil
}

// allToAllCount implements DD's original data movement: each processor
// reads its local pages one at a time, processes each, and scatters it to
// every other processor with P-1 point-to-point sends; remote pages are
// drained and processed as they arrive.  The messages carry a congestion
// factor equal to the sender–receiver ring distance (see the cluster
// package comment), which is what makes this pattern take "significantly
// more than O(N) time" on sparse interconnects.
func (r *run) allToAllCount(p *cluster.Proc, tag string, pages [][]itemset.Transaction, process func([]itemset.Transaction)) int64 {
	me, procs := p.ID(), r.prm.P
	if procs == 1 {
		for _, page := range pages {
			process(page)
		}
		return 0
	}
	// Agree on per-processor page counts so receive loops terminate.
	gathered := r.world.AllGather(p, tag+"/npages", len(pages), 8)
	pageCount := make([]int, procs)
	maxPages := 0
	for _, g := range gathered {
		n := g.Payload.(int)
		pageCount[g.Rank] = n
		if n > maxPages {
			maxPages = n
		}
	}

	var sent int64
	for round := 0; round < maxPages; round++ {
		if round < len(pages) {
			page := pages[round]
			b := pageBytesOf(page)
			for dst := 0; dst < procs; dst++ {
				if dst == me {
					continue
				}
				dist := cluster.RingDistance(me, dst, procs)
				// DD's original scatter blocks the sender for each of its
				// P-1 copies; IDD's ring pipeline is the fix (Section III-C).
				p.SendBlocking(dst, tag, page, b, float64(dist))
				sent += int64(b)
			}
			// Ties are broken in favor of remote buffers in [6], but the
			// local page is processed in the same round either way.
			process(page)
		}
		for src := 0; src < procs; src++ {
			if src == me || round >= pageCount[src] {
				continue
			}
			msg := p.Recv(src, tag)
			process(msg.Payload.([]itemset.Transaction))
		}
	}
	return sent
}
