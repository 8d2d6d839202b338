package core

import (
	"fmt"

	"parapriori/internal/apriori"
	"parapriori/internal/bitmap"
	"parapriori/internal/cluster"
	"parapriori/internal/countengine"
	"parapriori/internal/itemset"
	"parapriori/internal/obsv"
	"parapriori/internal/partition"
)

// formulation is the three decisions in which the parallel formulations
// differ.  Everything else — the first pass, candidate generation, the
// per-part build/count/reduce loop, the frequent-set exchange, checkpoints
// and resume — is the one body below.
type formulation struct {
	// rows shapes the pass's G × np/G processor grid: the G rows partition
	// the m candidates, the columns partition the transactions.
	rows func(r *run, m int) int
	// place selects the candidates of c that grid row `row` of g counts.
	place func(r *run, p *cluster.Proc, c candSet, g, row int) share
	// build makes the structure that counts one part of a rank's share,
	// charging its construction; where carry is on, from the index the pass
	// before kept.
	build func(r *run, p *cluster.Proc, cands itemset.Flat, carry *indexCarry) (counter, error)
	// grid marks the points of HD's grid (CD is 1 × P, IDD is P × 1).  Only
	// they replicate C_k, so only they can need the memory-capped multi-scan;
	// and their count time spans build, count and reduce where DD, DD+comm
	// and HPA have always reported the data movement alone (the reports are
	// the contract, so the window stays part of the formulation).
	grid bool
}

var formulations = map[Algorithm]formulation{
	CD:     {rows: rowsOne, place: placeBinPacked, build: engineCounter(ringCount, "ring"), grid: true},
	IDD:    {rows: rowsAll, place: placeBinPacked, build: engineCounter(ringCount, "ring"), grid: true},
	HD:     {rows: rowsHD, place: placeBinPacked, build: engineCounter(ringCount, "ring"), grid: true},
	DD:     {rows: rowsAll, place: placeRoundRobin, build: engineCounter(scatterCount, "a2a")},
	DDComm: {rows: rowsAll, place: placeRoundRobin, build: engineCounter(ringCount, "ring")},
	HPA:    {rows: rowsAll, place: placeHashed, build: hpaTable},
}

// share is a grid row's part of C_k.
type share struct {
	cands itemset.Flat
	// filter, when non-nil, holds the items that start one of cands: the
	// root-level pruning only a first-item-aligned placement permits.
	filter *bitmap.Bitmap
	// imbalance is (max-mean)/mean of the rows' candidate counts.
	imbalance float64
}

// counter is one rank's counting structure over one part of its share.
type counter interface {
	// count moves the column's transactions past the structure and returns
	// the supports it saw, in candidate order, adding what it moved and read
	// to pl.
	count(r *run, p *cluster.Proc, col *cluster.Comm, tag string, filter *bitmap.Bitmap, pl *passLocal) ([]int64, error)
}

// body is the SPMD program of every formulation.  The np participating
// processors are arranged as G rows × np/G columns:
//
//   - candidates are placed on the G rows, every column seeing the identical
//     placement;
//   - each column moves its transactions so every processor counts its
//     row's candidates against the column's whole data (the IDD part);
//   - counts are summed along rows, where everyone holds the same
//     candidates (the CD part);
//   - locally frequent sets are all-to-all broadcast down the columns.
//
// G = 1 is exactly CD (full tree everywhere, reduction over all P), G = P
// is exactly IDD (P-way candidate partition, ring over all P).  HD picks G
// per pass from the candidate count (Table II).  DD, DD+comm and HPA are
// P × 1 like IDD and differ in placement and movement (see formulations).
//
// Under fault-tolerant execution the grid is shaped over the *active*
// processors (virtual ranks into run.active) rather than all P, and a body
// re-entered after a rollback — or seeded from a persistent checkpoint —
// resumes from the last level every survivor completed.  Ranks outside the
// active set return immediately.
func (r *run) body(p *cluster.Proc) error {
	vr := r.vrank[p.ID()]
	if vr < 0 {
		return nil
	}
	f := formulations[r.prm.Algo]
	np := r.np()
	tr := &r.perProc[p.ID()]
	r.chargeRestore(p, tr)
	if len(tr.levels) == 0 {
		if err := r.firstPass(p, tr); err != nil {
			return err
		}
	}

	// The rank's bitset index, carried from pass to pass; a body re-entered
	// after a rollback, or resumed, scans afresh.
	var carry indexCarry

	prev := tr.levels[len(tr.levels)-1]
	for k := len(tr.levels) + 1; len(prev) > 0; k++ {
		if r.prm.Apriori.MaxPasses > 0 && k > r.prm.Apriori.MaxPasses {
			break
		}
		kArg := obsv.Int("k", int64(k))
		pl := passLocal{k: k, clockStart: p.Clock()}

		cands := r.candSet(k, prev)
		m := cands.m
		chargeGen(p, m)
		r.sec(p, "candidate gen", pl.clockStart, kArg)
		if m == 0 {
			break
		}

		g := f.rows(r, m)
		cols := np / g
		row, col := vr/cols, vr%cols
		rowComm, colComm := r.gridComms(row, col, g, cols)
		mine := f.place(r, p, cands, g, row)

		// Only a replicated C_k (a column of one) may need the multi-scan
		// partitioned tree: with g > 1 the whole point of the candidate
		// partitioning is that M/G candidates fit in memory.
		parts := 1
		if g == 1 && f.grid {
			parts = apriori.TreeParts(m, k, r.prm.Apriori.Tree, p.Machine().MemoryBytes)
		}
		// With one row and one part the rank counts its whole C_k against
		// all its own blocks, as the pass before did if it had one row and
		// one part too: then the index that pass kept holds this one's.
		carry.on = g == 1 && parts == 1
		if !carry.on {
			carry.eng = nil
		}
		local := mine.cands.Len()
		pl.candidates, pl.localCands, pl.candImbalance = m, local, mine.imbalance
		pl.gridRows, pl.gridCols, pl.treeParts = g, cols, parts

		// Every processor joins every part's movement and reduction even if
		// its own candidate share is empty (a row can receive zero
		// candidates when a late pass has fewer first-item groups than
		// rows): the collectives are what keep the column in step.
		computeBefore := p.Stats().ComputeTime
		var frequentLocal []apriori.Frequent
		for part := 0; part < parts; part++ {
			partCands := mine.cands.Slice(part*local/parts, (part+1)*local/parts)
			partArg := obsv.Int("part", int64(part))
			tag := fmt.Sprintf("k%d.p%d", k, part)

			buildStart := p.Clock()
			ctr, err := f.build(r, p, partCands, &carry)
			if err != nil {
				return fmt.Errorf("pass %d: %w", k, err)
			}
			r.sec(p, "build", buildStart, kArg, partArg)
			if !f.grid {
				computeBefore = p.Stats().ComputeTime
			}

			countStart := p.Clock()
			readBefore := pl.read.Bytes
			counts, err := ctr.count(r, p, colComm, tag, mine.filter, &pl)
			if err != nil {
				return fmt.Errorf("pass %d: %w", k, err)
			}
			// This part's own scan; pl.read keeps the pass total.
			r.sec(p, "count", countStart, scanArgs(pl.read.Bytes-readBefore, kArg, partArg)...)

			redStart := p.Clock()
			global := rowComm.AllReduceInt64(p, tag+"/red", counts)
			r.sec(p, "reduce", redStart, kArg, partArg)
			if pruned := pruneLocal(partCands, global, r.minCount); frequentLocal == nil {
				frequentLocal = pruned
			} else {
				frequentLocal = append(frequentLocal, pruned...)
			}
		}
		pl.countTime = p.Stats().ComputeTime - computeBefore

		// With one row every processor holds all candidates with global
		// counts; no frequent-set exchange is needed.
		level := frequentLocal
		if g > 1 {
			exStart := p.Clock()
			level = exchangeFrequent(p, colComm, fmt.Sprintf("k%d/freq", k), frequentLocal)
			r.sec(p, "exchange", exStart, kArg)
		}
		pl.frequent, pl.clockEnd = len(level), p.Clock()
		tr.passes = append(tr.passes, pl)
		if err := r.endPass(p, tr, level, obsv.Int("row", int64(row)), obsv.Int("col", int64(col))); err != nil {
			return err
		}
		prev = level
	}
	return nil
}

// endPass closes the pass whose record was just appended to tr: the level
// joins the rank's results, is checkpointed, and the pass span is emitted
// after the checkpoint charges land.
func (r *run) endPass(p *cluster.Proc, tr *procTrace, level []apriori.Frequent, extra ...obsv.Attr) error {
	tr.levels = append(tr.levels, level)
	ckStart := p.Clock()
	if err := r.checkpoint(p, level); err != nil {
		return err
	}
	r.sec(p, "checkpoint", ckStart, obsv.Int("k", int64(len(tr.levels))))
	r.passSpan(p, tr, extra...)
	return nil
}

// rowsOne is CD's shape: every processor counts all candidates.
func rowsOne(*run, int) int { return 1 }

// rowsAll is the P × 1 shape of IDD, DD, DD+comm and HPA: one row per
// participating processor.
func rowsAll(r *run, _ int) int { return r.np() }

// rowsHD picks HD's row count for a pass with m candidates: the pinned
// FixedG, or the smallest divisor of the active count no smaller than
// ⌈m/threshold⌉ so every row keeps at least `threshold` candidates (Table
// II's dynamic configurations).
//
// The grid is shaped over np() — after graceful degradation a pinned
// FixedG that no longer divides the survivor count is rounded down to the
// largest divisor that does.
func rowsHD(r *run, m int) int {
	np := r.np()
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

// placeBinPacked is the placement of CD, IDD and HD: replicated on a
// single row, otherwise bin-packed by first item.  Every processor runs the
// same deterministic bin-packing, so no communication is needed to agree on
// the assignment (each processor "locally regenerates and stores" its
// share, as Section III-C describes): all are charged for it, the host
// packs once and writes each row's share and sets its first items in a
// bitmap once (passcache.go).
func placeBinPacked(r *run, p *cluster.Proc, c candSet, g, row int) share {
	if g == 1 {
		return share{cands: r.candidates(c.k, c.prev)}
	}
	partStart := p.Clock()
	mine := r.binPack(c, g, row)
	chargeScan(p, int64(c.m), "partition")
	r.sec(p, "partition", partStart, obsv.Int("k", int64(c.k)))
	return mine
}

// placeRoundRobin is DD's placement [6]: it balances counts but scatters
// first items, so no root filtering is possible and every processor
// processes *all* N transactions against its M/P candidates — the redundant
// work Section III-B analyzes.
func placeRoundRobin(r *run, _ *cluster.Proc, c candSet, g, row int) share {
	parts := partition.RoundRobin(r.candidates(c.k, c.prev), g)
	counts := make([]int, g)
	for i, part := range parts {
		counts[i] = part.Len()
	}
	return share{cands: parts[row], imbalance: partition.Imbalance(counts)}
}

// engineCounter returns the build step of the formulations that count
// through the engine seam: a countengine.Engine over the part, fed by move —
// the column's data movement — under the given tag suffix.
func engineCounter(move mover, name string) func(*run, *cluster.Proc, itemset.Flat, *indexCarry) (counter, error) {
	return func(r *run, p *cluster.Proc, cands itemset.Flat, carry *indexCarry) (counter, error) {
		eng, carried, err := carry.engine(r, cands)
		if err != nil {
			return nil, err
		}
		if carryHook != nil && carry.on {
			carryHook(p.ID(), cands.K, carried)
		}
		chargeEngineBuild(p, eng.Stats())
		return &engineCount{eng: eng, carried: carried, move: move, name: name}, nil
	}
}

// indexCarry is a rank's bitset TID index, carried from one pass to the
// next within one body invocation.  It is on in a pass with one grid row and
// one part — CD's passes and HD's one-row ones — where the rank counts its
// whole C_k against its own blocks, all of them, in the order of the pass
// before.  A carried pass is charged as the scan it stands for: its blocks
// are read and verified, not decoded, and every charge is a fresh engine's.
type indexCarry struct {
	on  bool
	eng countengine.Carrier // the last engine built while on
}

// engine builds the pass's engine: over the carried index when there is one
// that holds every item of cands, afresh otherwise.  While the carry is on,
// the engine is the one the next pass carries from.
func (c *indexCarry) engine(r *run, cands itemset.Flat) (eng countengine.Engine, carried bool, err error) {
	if prev := c.eng; prev != nil {
		c.eng = nil
		next, err := prev.Carry(cands)
		if err != nil {
			return nil, false, err
		}
		if next != nil {
			eng, carried = next, true
		}
	}
	if eng == nil {
		if eng, err = r.engB.NewPassFlat(cands); err != nil {
			return nil, false, err
		}
	}
	if ce, ok := eng.(countengine.Carrier); ok && c.on {
		c.eng = ce
	}
	return eng, carried, nil
}

// carryHook, when set, is told of every engine a rank builds while the
// carry is on, and whether it counts from the carried index (OnCarry).
var carryHook func(rank, k int, carried bool)

// OnCarry sets fn to be told of every engine a rank builds on a pass where
// the index carry is on — its global rank, the pass and whether the engine
// counts from the index the pass before kept — and returns a func that
// clears it.  It is a test hook: a carried pass is charged, reported and
// traced exactly as a fresh one, so nothing else tells them apart.  fn runs
// on the ranks' goroutines.
func OnCarry(fn func(rank, k int, carried bool)) (restore func()) {
	carryHook = fn
	return func() { carryHook = nil }
}

type engineCount struct {
	eng     countengine.Engine
	carried bool // eng counts from the carried index: the scan is skimmed
	move    mover
	name    string
}

func (c *engineCount) count(r *run, p *cluster.Proc, col *cluster.Comm, tag string, filter *bitmap.Bitmap, pl *passLocal) ([]int64, error) {
	eng := c.eng
	process := func(page []itemset.Transaction) {
		if len(page) == 0 {
			return
		}
		if eng.Len() > 0 {
			before := eng.Stats()
			eng.CountBlock(page, filter)
			chargeEngineCount(p, countengine.Delta(before, eng.Stats()))
		}
		if filter != nil {
			// The root-level bitmap check touches every item of every
			// transaction once.
			var items int64
			for _, t := range page {
				items += int64(len(t.Items))
			}
			chargeScan(p, items, "filter")
		}
	}
	// Blocks reach other ranks whenever the column has more than one
	// member, so the stream may recycle buffers only on a singleton.
	st := r.openStream(p, col.Size() > 1)
	defer st.close() // a crash or a dead peer panics out of the movement mid-scan
	var sent int64
	var err error
	if c.carried {
		// The carry is on only on one row, a column of one, where every mover
		// scans the rank's own blocks in place and no share has a root
		// filter: skim them, charging what counting them would.
		ce := eng.(countengine.Carrier)
		for err == nil {
			var txns, items int
			if txns, items, err = st.skim(p); txns == 0 {
				break
			}
			if eng.Len() > 0 {
				before := eng.Stats()
				ce.Skim(txns, items)
				chargeEngineCount(p, countengine.Delta(before, eng.Stats()))
			}
		}
		if err == nil {
			err = ce.Skimmed()
		}
	} else {
		sent, err = c.move(p, col, tag+"/"+c.name, st, process)
	}
	pl.read.Add(st.close())
	if err != nil {
		return nil, err
	}
	pl.bytesMoved += sent
	// Deferred backends (bitset) intersect their bitmaps inside Counts;
	// snapshotting around the call folds that work into the count section.
	// The hash tree and trie charge nothing here.
	before := eng.Stats()
	counts := eng.Counts()
	chargeEngineCount(p, countengine.Delta(before, eng.Stats()))
	pl.tree.Add(eng.Stats().TreeStats())
	return counts, nil
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
	return r.mustComm(rowMembers), r.mustComm(colMembers)
}

// mover is a column's data movement: it takes the rank's own scan st, gets
// every member's blocks past every member's process, and returns the
// transaction bytes this processor sent.  On a singleton column every mover
// degenerates to scanning the local blocks in place (CD's counting loop).
type mover func(p *cluster.Proc, cm *cluster.Comm, tag string, st txStream, process func([]itemset.Transaction)) (int64, error)

// agreeRounds all-gathers the members' block counts.  Ranks own different
// numbers of blocks; the movement loops pad to the maximum so the column
// stays in step.  The counts are known when a scan opens, so this costs one
// collective and no I/O.
func agreeRounds(p *cluster.Proc, cm *cluster.Comm, tag string, st txStream) (counts []int, rounds int) {
	counts = make([]int, cm.Size())
	for _, g := range cm.AllGather(p, tag+"/npages", st.blocks(), 8) {
		n := g.Payload.(int)
		counts[g.Rank] = n
		if n > rounds {
			rounds = n
		}
	}
	return counts, rounds
}

// ringCount is the pipelined ring data movement of Figure 6: every
// processor's blocks take size-1 hops around the ring, and each buffer is
// processed between posting the send and completing the receive, so
// communication overlaps computation on machines that support it.
func ringCount(p *cluster.Proc, cm *cluster.Comm, tag string, st txStream, process func([]itemset.Transaction)) (int64, error) {
	size := cm.Size()
	if size == 1 {
		return 0, scan(p, st, process)
	}
	rank := cm.Rank(p)
	_, rounds := agreeRounds(p, cm, tag, st)
	right := (rank + 1) % size
	left := (rank - 1 + size) % size
	var sent int64
	for round := 0; round < rounds; round++ {
		// Past its own last block a rank circulates empty buffers.
		cur, err := st.next(p)
		if err != nil {
			return sent, err
		}
		for s := 0; s < size-1; s++ {
			b := pageBytesOf(cur)
			p.Send(cm.Member(right), tag, cur, b)
			sent += int64(b)
			process(cur)
			msg := p.Recv(cm.Member(left), tag)
			cur = msg.Payload.([]itemset.Transaction)
		}
		process(cur)
	}
	return sent, nil
}

// scatterCount is DD's original data movement [6]: each processor reads its
// local blocks one at a time, processes each, and scatters it to every
// other processor with size-1 point-to-point sends; remote blocks are
// drained and processed as they arrive.  The messages carry a congestion
// factor equal to the sender–receiver ring distance (see the cluster
// package comment), which is what makes this pattern take "significantly
// more than O(N) time" on sparse interconnects — and what DD+comm, the
// same placement moved by ringCount, isolates in Figure 10.
func scatterCount(p *cluster.Proc, cm *cluster.Comm, tag string, st txStream, process func([]itemset.Transaction)) (int64, error) {
	size := cm.Size()
	if size == 1 {
		return 0, scan(p, st, process)
	}
	me := cm.Rank(p)
	counts, rounds := agreeRounds(p, cm, tag, st)
	var sent int64
	for round := 0; round < rounds; round++ {
		page, err := st.next(p)
		if err != nil {
			return sent, err
		}
		if page != nil {
			b := pageBytesOf(page)
			for dst := 0; dst < size; dst++ {
				if dst == me {
					continue
				}
				// DD's original scatter blocks the sender for each of its
				// P-1 copies; IDD's ring pipeline is the fix (Section III-C).
				p.SendBlocking(cm.Member(dst), tag, page, b, float64(cluster.RingDistance(me, dst, size)))
				sent += int64(b)
			}
			// Ties are broken in favor of remote buffers in [6], but the
			// local page is processed in the same round either way.
			process(page)
		}
		for src := 0; src < size; src++ {
			if src == me || round >= counts[src] {
				continue
			}
			process(p.Recv(cm.Member(src), tag).Payload.([]itemset.Transaction))
		}
	}
	return sent, nil
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
