package countengine

import (
	"fmt"
	"math/bits"

	"parapriori/internal/itemset"
)

// The "bitset" backend is the vertical representation: one transaction-ID
// bitmap per item, support of a candidate = popcount of the AND of its
// items' bitmaps.  Counting work becomes 64-transactions-per-word
// operations (charged at the machine's t_word) instead of per-transaction
// subset enumeration, which is why vertical counting wins at low support,
// where candidate sets are large and deep (arXiv:1903.03008).
//
// Two modes share the arithmetic:
//
//   - Streaming (the parallel grid): each per-pass engine builds bitmaps
//     over the transactions CountBlock streams through it — ring-shifted
//     pages arrive in deterministic order, so bit positions are consistent
//     across the pass — and intersects them when Counts is called.
//   - Prepared (the serial miner): the builder indexes the whole dataset
//     once up front (DatasetPreparer), and every pass reuses the index,
//     skipping the per-pass re-scan entirely.

func init() {
	Register("bitset", func(cfg Config) Builder { return &bitsetBuilder{cfg: cfg} })
}

type bitsetBuilder struct {
	cfg Config
	// prepared, when non-nil, is the whole-dataset vertical index built by
	// Prepare.  Written once before mining starts (the serial miner's
	// single goroutine); the parallel grid never calls Prepare and its
	// SPMD goroutines only read the nil.
	prepared *verticalIndex
}

func (b *bitsetBuilder) Name() string { return "bitset" }

// verticalIndex holds one TID bitmap per original item.
type verticalIndex struct {
	cols [][]uint64
	n    int
}

func (ix *verticalIndex) add(items itemset.Itemset) {
	tid := ix.n
	ix.n++
	w, bit := tid>>6, uint64(1)<<(tid&63)
	for _, it := range items {
		for int(it) >= len(ix.cols) {
			ix.cols = append(ix.cols, nil)
		}
		col := ix.cols[it]
		for len(col) <= w {
			col = append(col, 0)
		}
		col[w] |= bit
		ix.cols[it] = col
	}
}

// Prepare indexes the dataset once; subsequent NewPass engines count
// against it.  See DatasetPreparer for the streaming contract.
func (b *bitsetBuilder) Prepare(data *itemset.Dataset) {
	ix := &verticalIndex{cols: make([][]uint64, data.NumItems)}
	for i := range data.Transactions {
		ix.add(data.Transactions[i].Items)
	}
	b.prepared = ix
}

func (b *bitsetBuilder) NewPass(k int, cands []itemset.Itemset) (Engine, error) {
	for _, c := range cands {
		if len(c) != k {
			return nil, fmt.Errorf("countengine: bitset candidate %v has %d items, want %d", c, len(c), k)
		}
		if !c.Valid() {
			return nil, fmt.Errorf("countengine: bitset candidate %v is not sorted", c)
		}
	}
	e := &bitsetEngine{
		k:       k,
		cands:   cands,
		counts:  make([]int64, len(cands)),
		colRefs: make([][]uint64, 0, k),
	}
	if b.prepared != nil {
		e.prepared = b.prepared
		return e, nil
	}
	// Streaming mode: bitmap columns only for the items the candidates
	// actually contain.
	span := b.cfg.NumItems
	for _, c := range cands {
		if len(c) > 0 && int(c[k-1])+1 > span {
			span = int(c[k-1]) + 1
		}
	}
	e.remap = make([]int32, span)
	for i := range e.remap {
		e.remap[i] = -1
	}
	for _, c := range cands {
		for _, it := range c {
			if e.remap[it] < 0 {
				e.remap[it] = int32(len(e.cols))
				e.cols = append(e.cols, nil)
				e.stats.BuildOps++
			}
		}
	}
	return e, nil
}

type bitsetEngine struct {
	k     int
	cands []itemset.Itemset
	// prepared, when non-nil, is the shared whole-dataset index; otherwise
	// the engine streams into its own columns.
	prepared *verticalIndex
	remap    []int32
	cols     [][]uint64
	n        int
	counts   []int64
	counted  bool
	colRefs  [][]uint64
	stats    Stats
}

func (e *bitsetEngine) Len() int { return len(e.cands) }

// CountBlock appends the block to the vertical index (a no-op beyond
// bookkeeping in prepared mode); the actual counting is deferred to Counts,
// one intersection per candidate.
//
//checkinv:hotpath
func (e *bitsetEngine) CountBlock(txns []itemset.Transaction, rootFilter func(itemset.Item) bool) {
	// rootFilter is ignored: it only ever excludes candidates outside this
	// engine's own candidate set (the grid builds per-row engines over the
	// filtered share), so intersection counts are unaffected.
	if e.prepared != nil {
		e.stats.Transactions += int64(len(txns))
		return
	}
	for i := range txns {
		items := txns[i].Items
		e.stats.Transactions++
		e.stats.ItemTouches += int64(len(items))
		tid := e.n
		e.n++
		w, bit := tid>>6, uint64(1)<<(tid&63)
		for _, it := range items {
			if int(it) >= len(e.remap) {
				continue
			}
			di := e.remap[it]
			if di < 0 {
				continue
			}
			col := e.cols[di]
			if w >= len(col) {
				col = growColumn(col, w)
				e.cols[di] = col
			}
			col[w] |= bit
		}
	}
}

// growColumn extends col with zero words to length w+1 — the same logical
// length the per-item loop used to reach, so MemoryBytes and WordOps are
// unchanged.  A column grows once per 64 transactions at most, so this stays
// out of line and off the per-item path.
//
//go:noinline
func growColumn(col []uint64, w int) []uint64 {
	for len(col) <= w {
		col = append(col, 0)
	}
	return col
}

// column returns the TID bitmap of an original item (nil when the item was
// never streamed).
func (e *bitsetEngine) column(it itemset.Item) []uint64 {
	if e.prepared != nil {
		if int(it) < len(e.prepared.cols) {
			return e.prepared.cols[it]
		}
		return nil
	}
	if int(it) < len(e.remap) {
		if di := e.remap[it]; di >= 0 {
			return e.cols[di]
		}
	}
	return nil
}

// Counts intersects each candidate's item bitmaps.  The work happens here,
// not in CountBlock; callers snapshot Stats around the call to charge it.
//
//checkinv:hotpath
func (e *bitsetEngine) Counts() []int64 {
	if !e.counted {
		e.counted = true
		for ci := range e.cands {
			refs := e.colRefs[:0]
			nw := -1
			for _, it := range e.cands[ci] {
				col := e.column(it)
				if nw < 0 || len(col) < nw {
					nw = len(col)
				}
				refs = append(refs, col)
			}
			e.colRefs = refs
			if len(refs) == 0 || nw <= 0 {
				continue
			}
			first := refs[0]
			var cnt int64
			for w := 0; w < nw; w++ {
				v := first[w]
				for j := 1; j < len(refs); j++ {
					v &= refs[j][w]
				}
				cnt += int64(bits.OnesCount64(v))
			}
			e.stats.WordOps += int64(nw * len(refs))
			e.counts[ci] = cnt
		}
	}
	out := make([]int64, len(e.counts))
	copy(out, e.counts)
	return out
}

func (e *bitsetEngine) Stats() Stats { return e.stats }

func (e *bitsetEngine) MemoryBytes() int {
	bytes := len(e.counts)*8 + len(e.remap)*4
	cols := e.cols
	if e.prepared != nil {
		cols = e.prepared.cols
	}
	for _, col := range cols {
		bytes += len(col) * 8
	}
	return bytes
}
