package core

import (
	"fmt"

	"parapriori/internal/apriori"
	"parapriori/internal/bitmap"
	"parapriori/internal/cluster"
	"parapriori/internal/countengine"
	"parapriori/internal/hashtree"
	"parapriori/internal/itemset"
	"parapriori/internal/obsv"
)

// gridBody is the SPMD program of the grid engine that realizes CD, IDD and
// HD.  The P processors are arranged as G rows × (P/G) columns:
//
//   - candidates are partitioned among the G rows with the bin-packing
//     partitioner, every column seeing the identical partition;
//   - each column ring-shifts its transactions so every processor counts
//     its row's candidates against the column's whole data (the IDD part);
//   - counts are summed along rows, where everyone holds the same
//     candidates (the CD part);
//   - locally frequent sets are all-to-all broadcast down the columns.
//
// G = 1 is exactly CD (full tree everywhere, reduction over all P), G = P
// is exactly IDD (P-way candidate partition, ring over all P).  HD picks G
// per pass from the candidate count (Table II).
//
// Under fault-tolerant execution the grid is shaped over the *active*
// processors (virtual ranks into run.active) rather than all P, and a body
// re-entered after a rollback resumes from its checkpoint: the last level
// every survivor completed.  Ranks outside the active set return
// immediately.
func (r *run) gridBody(p *cluster.Proc) error {
	vr := r.vrank[p.ID()]
	if vr < 0 {
		return nil
	}
	np := r.np()
	tr := &r.perProc[p.ID()]
	r.chargeRestore(p, tr)
	var prev []apriori.Frequent
	if len(tr.levels) == 0 {
		if r.ooc() {
			var err error
			if prev, err = r.firstPassOOC(p, tr); err != nil {
				return err
			}
		} else {
			prev = r.firstPass(p, tr)
		}
		tr.levels = append(tr.levels, prev)
		ckStart := p.Clock()
		if err := r.checkpoint(p, prev); err != nil {
			return err
		}
		r.sec(p, "checkpoint", ckStart, obsv.Int("k", 1))
		r.passSpan(p, tr)
	} else {
		prev = tr.levels[len(tr.levels)-1]
	}

	for k := len(tr.levels) + 1; len(prev) > 0; k++ {
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

		g := r.chooseG(len(cands))
		cols := np / g
		row, col := vr/cols, vr%cols
		rowComm, colComm := r.gridComms(row, col, g, cols)

		// Partition candidates among the rows.  Every processor runs the
		// same deterministic bin-packing, so no communication is needed to
		// agree on the assignment (each processor "locally regenerates and
		// stores" its share, as Section III-C describes): all are charged
		// for it, the host packs once (passcache.go).
		var myCands []itemset.Itemset
		var filter func(itemset.Item) bool
		var candImbalance float64
		if g == 1 {
			myCands = cands
		} else {
			partStart := p.Clock()
			asg := r.binPack(k, g, cands)
			myCands = asg.PerProc[row]
			candImbalance = asg.Imbalance()
			chargeScan(p, int64(len(cands)), "partition")
			bm := bitmap.New(r.itemCount())
			for _, c := range myCands {
				bm.Set(int(c[0]))
			}
			filter = func(it itemset.Item) bool { return bm.Test(int(it)) }
			r.sec(p, "partition", partStart, obsv.Int("k", int64(k)))
		}

		// Only the pure-CD configuration (a column of one) may need the
		// multi-scan partitioned tree: with g > 1 the whole point of the
		// candidate partitioning is that M/G candidates fit in memory.
		parts := 1
		if g == 1 {
			parts = apriori.TreeParts(len(myCands), k, apriori.Params{
				Tree:        r.prm.Apriori.Tree,
				MemoryBytes: p.Machine().MemoryBytes,
			})
		}

		computeBefore := p.Stats().ComputeTime
		var passTree hashtree.Stats
		var bytesMoved int64
		var read oocReadStats
		var frequentLocal []apriori.Frequent
		var pages [][]itemset.Transaction
		var shardBytes int64
		if !r.ooc() {
			pages, shardBytes = r.ownedPages(p.ID())
		}

		// Every processor joins every part's ring shift and reduction even
		// if its own candidate share is empty (a row can receive zero
		// candidates when a late pass has fewer first-item groups than
		// rows): the collectives are what keep the column in step.
		for part := 0; part < parts; part++ {
			lo, hi := part*len(myCands)/parts, (part+1)*len(myCands)/parts
			buildStart := p.Clock()
			eng, err := r.engineBuilder().NewPass(k, myCands[lo:hi])
			if err != nil {
				return fmt.Errorf("pass %d: %w", k, err)
			}
			chargeEngineBuild(p, eng.Stats())
			r.sec(p, "build", buildStart, obsv.Int("k", int64(k)), obsv.Int("part", int64(part)))

			process := func(page []itemset.Transaction) {
				if len(page) == 0 {
					return
				}
				var items int64
				for _, t := range page {
					items += int64(len(t.Items))
				}
				if eng.Len() > 0 {
					before := eng.Stats()
					eng.CountBlock(page, filter)
					chargeEngineCount(p, countengine.Delta(before, eng.Stats()))
				}
				if filter != nil {
					// The root-level bitmap check touches every item of
					// every transaction once.
					chargeScan(p, items, "filter")
				}
			}

			countStart := p.Clock()
			countArgs := []obsv.Attr{obsv.Int("k", int64(k)), obsv.Int("part", int64(part))}
			if r.ooc() {
				// Out of core, every block's real on-disk size is charged as
				// it is read (inside the stream) instead of one modeled
				// charge for the whole shard.
				moved, rs, err := r.ringCountStream(p, colComm, fmt.Sprintf("k%d.p%d/ring", k, part), process)
				if err != nil {
					return fmt.Errorf("pass %d: %w", k, err)
				}
				bytesMoved += moved
				read.add(rs)
				// This part's own scan; read keeps the pass total.
				countArgs = append(countArgs, obsv.Int("read_bytes", rs.bytes))
			} else {
				p.ReadIO(shardBytes, "io")
				bytesMoved += ringCount(p, colComm, fmt.Sprintf("k%d.p%d/ring", k, part), pages, process)
			}
			// Deferred backends (bitset) intersect their bitmaps inside
			// Counts; snapshotting around the call folds that work into the
			// count section.  The hash tree and trie charge nothing here.
			countsBefore := eng.Stats()
			counts := eng.Counts()
			chargeEngineCount(p, countengine.Delta(countsBefore, eng.Stats()))
			r.sec(p, "count", countStart, countArgs...)

			redStart := p.Clock()
			global := rowComm.AllReduceInt64(p, fmt.Sprintf("k%d.p%d/red", k, part), counts)
			r.sec(p, "reduce", redStart, obsv.Int("k", int64(k)), obsv.Int("part", int64(part)))
			frequentLocal = append(frequentLocal, pruneLocal(myCands[lo:hi], global, r.minCount)...)
			passTree.Add(eng.Stats().TreeStats())
		}
		countTime := p.Stats().ComputeTime - computeBefore

		var level []apriori.Frequent
		if g == 1 {
			// CD: every processor holds all candidates with global counts;
			// no frequent-set exchange is needed.
			level = frequentLocal
		} else {
			exStart := p.Clock()
			level = exchangeFrequent(p, colComm, fmt.Sprintf("k%d/freq", k), frequentLocal)
			r.sec(p, "exchange", exStart, obsv.Int("k", int64(k)))
		}

		tr.passes = append(tr.passes, passLocal{
			k:             k,
			candidates:    len(cands),
			localCands:    len(myCands),
			frequent:      len(level),
			gridRows:      g,
			gridCols:      cols,
			treeParts:     parts,
			tree:          passTree,
			bytesMoved:    bytesMoved,
			countTime:     countTime,
			clockStart:    clockStart,
			clockEnd:      p.Clock(),
			candImbalance: candImbalance,
			read:          read,
		})
		tr.levels = append(tr.levels, level)
		ckStart := p.Clock()
		if err := r.checkpoint(p, level); err != nil {
			return err
		}
		r.sec(p, "checkpoint", ckStart, obsv.Int("k", int64(k)))
		r.passSpan(p, tr, obsv.Int("row", int64(row)), obsv.Int("col", int64(col)))
		prev = level
	}
	return nil
}

// ownedPages concatenates the pages of every shard the rank owns (its own
// plus any adopted from lost ranks) and returns them with the total byte
// size, in deterministic shard order.
func (r *run) ownedPages(rank int) ([][]itemset.Transaction, int64) {
	if r.ownedShards == nil {
		sh := r.shards[rank]
		return sh.Pages(r.prm.PageBytes), int64(sh.Bytes())
	}
	var pages [][]itemset.Transaction
	var bytes int64
	for _, si := range r.ownedShards[rank] {
		sh := r.shards[si]
		pages = append(pages, sh.Pages(r.prm.PageBytes)...)
		bytes += int64(sh.Bytes())
	}
	return pages, bytes
}

// chooseG picks the number of candidate partitions (grid rows) for a pass
// with m candidates.  CD always uses 1, IDD always uses the active
// processor count; HD uses the pinned FixedG or the smallest divisor of
// the active count no smaller than ⌈m/threshold⌉ so every row keeps at
// least `threshold` candidates (Table II's dynamic configurations).
//
// The grid is shaped over np() — after graceful degradation a pinned
// FixedG that no longer divides the survivor count is rounded down to the
// largest divisor that does.
func (r *run) chooseG(m int) int {
	np := r.np()
	switch r.prm.Algo {
	case CD:
		return 1
	case IDD:
		return np
	default: // HD
		if r.prm.FixedG > 0 {
			g := r.prm.FixedG
			if g > np {
				g = np
			}
			for ; g > 1; g-- {
				if np%g == 0 {
					break
				}
			}
			return g
		}
		need := (m + r.prm.HDThreshold - 1) / r.prm.HDThreshold
		if need <= 1 {
			return 1
		}
		for g := need; g < np; g++ {
			if np%g == 0 {
				return g
			}
		}
		return np
	}
}

// gridComms builds this processor's row and column communicators for a
// G×cols grid.  Processor (row, col) has *virtual* rank row*cols + col;
// members are mapped through the active set to global ranks.
func (r *run) gridComms(row, col, g, cols int) (rowComm, colComm *cluster.Comm) {
	rowMembers := make([]int, cols)
	for c := 0; c < cols; c++ {
		rowMembers[c] = r.active[row*cols+c]
	}
	colMembers := make([]int, g)
	for rr := 0; rr < g; rr++ {
		colMembers[rr] = r.active[rr*cols+col]
	}
	rowComm, err := cluster.NewComm(r.cl, rowMembers)
	if err != nil {
		panic(err) // unreachable: members derived from valid grid shape
	}
	colComm, err = cluster.NewComm(r.cl, colMembers)
	if err != nil {
		panic(err)
	}
	return rowComm, colComm
}

// ringCount runs the pipelined ring data movement of Figure 6 over the
// communicator: every processor's pages take size-1 hops around the ring,
// and each buffer is processed between posting the send and completing the
// receive, so communication overlaps computation on machines that support
// it.  It returns the transaction bytes this processor sent.
//
// With a singleton communicator it degenerates to processing the local
// pages in place (CD's counting loop).
func ringCount(p *cluster.Proc, cm *cluster.Comm, tag string, pages [][]itemset.Transaction, process func([]itemset.Transaction)) int64 {
	size := cm.Size()
	if size == 1 {
		for _, page := range pages {
			process(page)
		}
		return 0
	}
	rank := cm.Rank(p)
	if rank < 0 {
		panic(fmt.Sprintf("core: proc %d not in ring communicator %q", p.ID(), tag))
	}
	// Processors may hold different page counts (±1); agree on the number
	// of rounds so the ring stays in step, padding with empty buffers.
	counts := cm.AllGather(p, tag+"/npages", len(pages), 8)
	rounds := 0
	for _, g := range counts {
		if n := g.Payload.(int); n > rounds {
			rounds = n
		}
	}

	right := (rank + 1) % size
	left := (rank - 1 + size) % size
	var sent int64
	for round := 0; round < rounds; round++ {
		var cur []itemset.Transaction
		if round < len(pages) {
			cur = pages[round]
		}
		for s := 0; s < size-1; s++ {
			b := pageBytesOf(cur)
			p.SendReliable(cm.Member(right), tag, cur, b)
			sent += int64(b)
			process(cur)
			msg := p.RecvReliable(cm.Member(left), tag)
			cur = msg.Payload.([]itemset.Transaction)
		}
		process(cur)
	}
	return sent
}

// pageBytesOf is the modeled wire size of a transaction page: a small
// header plus the transactions.
func pageBytesOf(page []itemset.Transaction) int {
	b := 16
	for _, t := range page {
		b += t.Bytes()
	}
	return b
}
