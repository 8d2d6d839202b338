package countengine

import (
	"fmt"
	"math/bits"
	"sync"

	"parapriori/internal/bitmap"
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
//
// What is charged is the column-per-item algorithm: a column is as long as
// its last set bit needs, an intersection runs to the shortest column of the
// candidate, k words per step.  What runs is one paged layout (vertical)
// whose host work is smaller; every counter and MemoryBytes are the column
// model's, computed from the logical column lengths.
//
// A streaming engine over a dense C₂ — every pair of its own items that
// starts with a first item it counts, as CD's whole C₂ and HD's and IDD's
// whole-row shares are — runs no intersections at all: it counts each
// transaction's pairs straight into a pair matrix (pairMatrix) and keeps only
// each column's last TID, which fixes the same logical lengths.

func init() {
	Register("bitset", func(cfg Config) Builder { return &bitsetBuilder{cfg: cfg} })
}

type bitsetBuilder struct {
	cfg Config
	// prepared, when non-nil, is the whole-dataset vertical index built by
	// Prepare.  Written once before mining starts (the serial miner's
	// single goroutine); the parallel grid never calls Prepare and its
	// SPMD goroutines only read the nil.
	prepared *vertical
}

func (b *bitsetBuilder) Name() string { return "bitset" }

const (
	pageWords = 64              // words per column page
	rowShift  = 12              // log2 of the transactions a page covers (64 × 64)
	rowMask   = 1<<rowShift - 1 // a transaction's bit offset inside its page
)

// page is one column's bits for 4 096 consecutive transactions.
type page [pageWords]uint64

// row is page r of every column side by side: column c's page is row[c].
type row []page

// rowPool recycles streaming engines' rows across passes and ranks.  A row
// is cleared when taken, never when returned.
var rowPool sync.Pool // of *row

func takeRow(width int) *row {
	if r, ok := rowPool.Get().(*row); ok && cap(*r) >= width {
		*r = (*r)[:width]
		clear(*r)
		return r
	}
	r := make(row, width)
	return &r
}

// vertical is the TID-bitmap index of both modes.  Every item maps to a
// column; an item in no candidate (streaming), or at or beyond the span,
// maps to the extra sink column, so setting a bit never branches on the
// item.  In prepared mode the span covers every item the dataset holds, so
// the sink stays empty and doubles as the all-zero column.
type vertical struct {
	remap []int32 // item → column
	sink  int32   // the sink's column index: the number of real columns
	rows  []*row  // a row is allocated when a transaction first reaches it
	n     int     // transactions added
	// last, on a pair-matrix engine, is each column's last TID (-1 for
	// none), which it keeps instead of rows.
	last []int
	// words, once set, is each column's logical length (see columnWords);
	// it outlives the rows, which a streaming engine releases in Counts.
	words []int
}

// column returns the column an item's bits live in.
func (v *vertical) column(it itemset.Item) int32 {
	if uint(it) < uint(len(v.remap)) {
		return v.remap[it]
	}
	return v.sink
}

// add appends the transactions, one TID each, and returns the items it
// touched.  This is the one bit-setting loop of both modes.
//
//checkinv:hotpath
func (v *vertical) add(txns []itemset.Transaction) (touched int64) {
	remap, sink := v.remap, v.sink
	for i := range txns {
		tid := v.n
		v.n++
		r := tid >> rowShift
		if r == len(v.rows) {
			v.rows = append(v.rows, takeRow(int(sink)+1))
		}
		pages := *v.rows[r]
		w, bit := (tid&rowMask)>>6, uint64(1)<<(tid&63)
		items := txns[i].Items
		touched += int64(len(items))
		for _, it := range items {
			c := sink // v.column, spelled out so the table stays in registers
			if uint(it) < uint(len(remap)) {
				c = remap[it]
			}
			pages[c][w] |= bit
		}
	}
	return touched
}

// columnWords returns each column's logical length in words: one past its
// last non-zero word, exactly the length a column grown one word at a time
// to hold its last set bit reaches.  Without rows that is the word of the
// column's last TID.
func (v *vertical) columnWords() []int {
	if v.words != nil {
		return v.words
	}
	words := make([]int, int(v.sink)+1)
	if v.last != nil {
		for c, tid := range v.last {
			words[c] = tid>>6 + 1
		}
		return words
	}
	for c := range words {
	rows:
		for r := len(v.rows) - 1; r >= 0; r-- {
			p := &(*v.rows[r])[c]
			for w := pageWords - 1; w >= 0; w-- {
				if p[w] != 0 {
					words[c] = r*pageWords + w + 1
					break rows
				}
			}
		}
	}
	return words
}

// release fixes the column lengths at words and hands the rows back to the
// pool.
func (v *vertical) release(words []int) {
	v.words = words
	for _, r := range v.rows {
		rowPool.Put(r)
	}
	v.rows = nil
}

// Prepare indexes the dataset once; subsequent NewPass engines count
// against it.  See DatasetPreparer for the streaming contract.
func (b *bitsetBuilder) Prepare(data *itemset.Dataset) {
	span := data.NumItems
	for i := range data.Transactions {
		for _, it := range data.Transactions[i].Items {
			span = max(span, int(it)+1)
		}
	}
	v := &vertical{remap: make([]int32, span), sink: int32(span)}
	for i := range v.remap {
		v.remap[i] = int32(i)
	}
	v.add(data.Transactions)
	v.words = v.columnWords()
	b.prepared = v
}

func (b *bitsetBuilder) NewPass(k int, cands []itemset.Itemset) (Engine, error) {
	return newPass(b, k, cands)
}

func (b *bitsetBuilder) NewPassFlat(cands itemset.Flat) (Engine, error) {
	k, m := cands.K, cands.Len()
	span := b.cfg.NumItems
	for i := 0; i < m; i++ {
		c := cands.At(i)
		if !c.Valid() {
			return nil, fmt.Errorf("countengine: bitset candidate %v is not sorted", c)
		}
		span = max(span, int(c[k-1])+1)
	}
	e := &bitsetEngine{k: k, counts: make([]int64, m), ix: b.prepared}
	if e.ix == nil {
		// Streaming mode: columns only for the items the candidates
		// actually contain, numbered in item order.
		v := &vertical{remap: make([]int32, span)}
		for _, it := range cands.Items {
			v.remap[it] = 1
		}
		for i, used := range v.remap {
			v.remap[i] = -1
			if used != 0 {
				v.remap[i] = v.sink
				v.sink++
			}
		}
		for i, c := range v.remap {
			if c < 0 {
				v.remap[i] = v.sink
			}
		}
		e.stats.BuildOps = int64(v.sink)
		e.ix, e.streaming = v, true
	}
	e.cols = make([]int32, len(cands.Items))
	for i, it := range cands.Items {
		e.cols[i] = e.ix.column(it)
	}
	if e.streaming && k == 2 {
		e.pairs = newPairMatrix(e.ix, e.cols)
	}
	return e, nil
}

// pairMatrix counts a dense C₂ by pairs.  Columns are numbered in item
// order, so a transaction's candidate items, mapped to columns, stay
// ascending, and every pair of them that starts with a first item is a
// candidate: one cell each, in rows by first column.  Row a holds a cell for
// every column after a, cell (a, b) at start[a]+b-a-1, so the cells are
// exactly the candidates, and a transaction of m candidate items costs at
// most m(m-1)/2 increments where the column kernel ANDs every candidate's
// pages.
type pairMatrix struct {
	start []int   // column → its row's first cell, or -1 when no candidate starts with it
	cells []int64 // one count per distinct candidate
	buf   []int32 // one transaction's candidate columns
}

// newPairMatrix returns the matrix for candidate pairs cols (cols[2i],
// cols[2i+1] candidate i's columns, in item order), or nil when they are not
// dense over their own columns: when some column after a first column is
// missing from its row, as in a round-robin share or a hash-filtered C₂,
// which keep the column kernel.  It also fixes v's lengths to come from
// last TIDs.
func newPairMatrix(v *vertical, cols []int32) *pairMatrix {
	n := int(v.sink)
	start := make([]int, n)
	for i := range start {
		start[i] = -1
	}
	for i := 0; i < len(cols); i += 2 {
		start[cols[i]] = 0
	}
	cells := 0
	for a := range start {
		if start[a] == 0 {
			start[a] = cells
			cells += n - a - 1
		}
	}
	// Every candidate has a cell, so fewer candidates than cells leave a
	// hole; as many or more may still repeat one.
	if len(cols)/2 < cells || cells == 0 {
		return nil
	}
	p := &pairMatrix{start: start, cells: make([]int64, cells)}
	distinct := 0
	for i := 0; i < len(cols); i += 2 {
		c := &p.cells[p.cell(cols[i], cols[i+1])]
		if *c == 0 {
			*c = 1
			distinct++
		}
	}
	if distinct < cells {
		return nil
	}
	clear(p.cells)
	v.last = make([]int, n+1)
	for c := range v.last {
		v.last[c] = -1
	}
	return p
}

// cell returns the cell of candidate (a, b), a < b.
func (p *pairMatrix) cell(a, b int32) int {
	return p.start[a] + int(b) - int(a) - 1
}

// add counts the transactions' candidate pairs, one TID each, and returns
// the items it touched.  Like vertical.add, every item maps through the
// remap (the sink included) and records its column's last TID without a
// branch on the sink.
//
//checkinv:hotpath
func (p *pairMatrix) add(v *vertical, txns []itemset.Transaction) (touched int64) {
	longest := 0
	for i := range txns {
		longest = max(longest, len(txns[i].Items))
	}
	if len(p.buf) < longest {
		p.buf = make([]int32, longest)
	}
	remap, sink, last, start, cells, buf := v.remap, v.sink, v.last, p.start, p.cells, p.buf
	for i := range txns {
		tid := v.n
		v.n++
		items := txns[i].Items
		touched += int64(len(items))
		m := 0
		for _, it := range items {
			c := sink
			if uint(it) < uint(len(remap)) {
				c = remap[it]
			}
			last[c] = tid
			buf[m] = c
			if c != sink {
				m++
			}
		}
		row := buf[:m]
		for j, a := range row {
			s := start[a]
			if s < 0 {
				continue
			}
			s -= int(a) + 1
			for _, b := range row[j+1:] {
				cells[s+int(b)]++
			}
		}
	}
	return touched
}

type bitsetEngine struct {
	k int
	// ix is the engine's own index (streaming) or the builder's shared,
	// read-only one (prepared).
	ix        *vertical
	streaming bool
	cols      []int32 // candidate i's columns are cols[i*k : i*k+k]
	// pairs, when set, counts instead of the rows (a streaming k = 2 engine
	// over a dense C₂).
	pairs   *pairMatrix
	counts  []int64
	counted bool
	stats   Stats
}

func (e *bitsetEngine) Len() int { return len(e.counts) }

// CountBlock appends the block to the vertical index (a no-op beyond
// bookkeeping in prepared mode); the actual counting is deferred to Counts,
// one intersection per candidate.  A pair-matrix engine counts the block's
// pairs here instead, but its WordOps are charged in Counts all the same.
func (e *bitsetEngine) CountBlock(txns []itemset.Transaction, rootFilter *bitmap.Bitmap) {
	// rootFilter is ignored: it only ever excludes candidates outside this
	// engine's own candidate set (the grid builds per-row engines over the
	// filtered share), so intersection counts are unaffected.
	e.stats.Transactions += int64(len(txns))
	switch {
	case e.pairs != nil:
		e.stats.ItemTouches += e.pairs.add(e.ix, txns)
	case e.streaming:
		e.stats.ItemTouches += e.ix.add(txns)
	}
}

// Counts intersects each candidate's item bitmaps.  The work happens here,
// not in CountBlock; callers snapshot Stats around the call to charge it.
// The charge is k words per step up to the candidate's shortest column; the
// host walks the rows once, every candidate's pages per row, or reads each
// candidate's cell of the pair matrix.
//
//checkinv:hotpath
func (e *bitsetEngine) Counts() []int64 {
	if !e.counted {
		e.counted = true
		k, words := e.k, e.ix.columnWords()
		for i := 0; k > 0 && i < len(e.counts); i++ {
			cols := e.cols[i*k : i*k+k]
			nw := words[cols[0]]
			for _, c := range cols[1:] {
				nw = min(nw, words[c])
			}
			e.stats.WordOps += int64(nw * k)
		}
		if p := e.pairs; p != nil {
			for i := range e.counts {
				e.counts[i] = p.cells[p.cell(e.cols[2*i], e.cols[2*i+1])]
			}
		}
		for _, r := range e.ix.rows {
			intersect(e.counts, *r, e.cols, k)
		}
		if e.streaming {
			e.ix.release(words)
		}
	}
	return e.counts
}

// intersect adds one row's share of every candidate's support.
//
//checkinv:hotpath
func intersect(counts []int64, pages row, cols []int32, k int) {
	switch k {
	case 0:
	case 1:
		for i := range counts {
			counts[i] += popcount1(&pages[cols[i]])
		}
	case 2:
		for i := range counts {
			counts[i] += popcount2(&pages[cols[2*i]], &pages[cols[2*i+1]])
		}
	case 3:
		for i := range counts {
			counts[i] += popcount3(&pages[cols[3*i]], &pages[cols[3*i+1]], &pages[cols[3*i+2]])
		}
	default:
		for i := range counts {
			counts[i] += popcountK(pages, cols[i*k:i*k+k])
		}
	}
}

//checkinv:hotpath
func popcount1(a *page) int64 {
	n := 0
	for w := range a {
		n += bits.OnesCount64(a[w])
	}
	return int64(n)
}

//checkinv:hotpath
func popcount2(a, b *page) int64 {
	n := 0
	for w := range a {
		n += bits.OnesCount64(a[w] & b[w])
	}
	return int64(n)
}

//checkinv:hotpath
func popcount3(a, b, c *page) int64 {
	n := 0
	for w := range a {
		n += bits.OnesCount64(a[w] & b[w] & c[w])
	}
	return int64(n)
}

// popcountK is the general kernel, for k ≥ 4.
//
//checkinv:hotpath
func popcountK(pages row, cols []int32) int64 {
	acc := pages[cols[0]]
	for _, c := range cols[1:] {
		p := &pages[c]
		for w := range acc {
			acc[w] &= p[w]
		}
	}
	return popcount1(&acc)
}

func (e *bitsetEngine) Stats() Stats { return e.stats }

// MemoryBytes is the column model's size: the count vector, the streaming
// remap and every real column at its logical length (the sink and the
// pages' unused tails are host detail).
func (e *bitsetEngine) MemoryBytes() int {
	bytes := len(e.counts) * 8
	if e.streaming {
		bytes += len(e.ix.remap) * 4
	}
	for _, w := range e.ix.columnWords()[:e.ix.sink] {
		bytes += w * 8
	}
	return bytes
}
