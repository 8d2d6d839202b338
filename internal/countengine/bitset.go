package countengine

import (
	"fmt"
	"math/bits"

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
// A fresh engine builds bitmaps over the transactions CountBlock
// streams through it — the serial miner's scan, or the grid's ring-shifted
// pages, which arrive in deterministic order, so bit positions are
// consistent across the pass — and intersects them when Counts is called.
//
// What is charged is the column-per-item algorithm: a column is as long as
// its last set bit needs, an intersection runs to the shortest column of the
// candidate, k words per step.  What runs is one paged layout (vertical)
// whose host work is smaller; every counter and MemoryBytes are the column
// model's, computed from the logical column lengths.
//
// An engine over a dense C₂ — whole ascending first-item rows, as CD's whole
// C₂ and HD's and IDD's whole-row shares are, recognised by
// itemset.Flat.PairIndex, the check the hash tree's pair index makes too —
// runs no intersections at all: it counts each transaction's pairs straight
// into the count vector (pairMatrix) and keeps only each column's last TID,
// which fixes the same logical lengths.
//
// An engine's TID index can outlive its pass.  Where the next pass scans the
// same transactions in the same order (core's one-row, one-part passes),
// Carry builds the next pass's engine over the rows a counted engine left:
// items(C_{k+1}) ⊆ items(F_k) ⊆ items(C_k), so they hold every column the
// new candidates need, at the TIDs a fresh scan would give them.  A carried
// engine sets no bits; it is told each block's size (Skim) so that its
// Stats, and with them every charge, are a fresh engine's, and it checks
// that the scan it skimmed is the one it carries (Skimmed).  From Counts on
// the rows are only read: Carry and a carried engine's Counts write nothing
// to the index.

type bitsetBuilder struct {
	cfg Config
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

// vertical is an engine's TID-bitmap index.  Every item maps to a column;
// an item in no candidate, or at or beyond the span, maps to the extra sink
// column, so setting a bit never branches on the item.
type vertical struct {
	remap []int32 // item → column
	sink  int32   // the sink's column index: the number of real columns
	rows  []row   // a row is allocated when a transaction first reaches it
	n     int     // transactions added
	items int64   // items those transactions hold: with n, what a carried scan must add up to
	// last, on a pair-matrix engine, is each column's last TID (-1 for
	// none), which it keeps instead of rows.
	last []int
	// words is each column's logical length (see columnWords), set by the
	// first Counts over the index; carried engines read it.
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
// touched.  This is the one bit-setting loop.
//
//checkinv:hotpath
func (v *vertical) add(txns []itemset.Transaction) (touched int64) {
	remap, sink := v.remap, v.sink
	for i := range txns {
		tid := v.n
		v.n++
		r := tid >> rowShift
		if r == len(v.rows) {
			v.rows = append(v.rows, make(row, sink+1))
		}
		pages := v.rows[r]
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
			p := &v.rows[r][c]
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

func (b *bitsetBuilder) NewPass(k int, cands []itemset.Itemset) (Engine, error) {
	return newPass(b, k, cands)
}

// remapSpan is the width of an engine's remap over cands: the vocabulary or
// the largest candidate item, whichever is wider.
func remapSpan(cands itemset.Flat, numItems int) (int, error) {
	span, err := cands.Check()
	if err != nil {
		return 0, fmt.Errorf("countengine: bitset: %w", err)
	}
	return max(span, numItems), nil
}

func (b *bitsetBuilder) NewPassFlat(cands itemset.Flat) (Engine, error) {
	k, m := cands.K, cands.Len()
	span, err := remapSpan(cands, b.cfg.NumItems)
	if err != nil {
		return nil, err
	}
	// Columns only for the items the candidates actually contain, numbered
	// in item order.
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
	e := &bitsetEngine{k: k, ix: v, counts: make([]int64, m), span: span, numItems: b.cfg.NumItems, stats: Stats{BuildOps: int64(v.sink)}}
	if k == 2 {
		if e.pairs = newPairMatrix(v, cands, span); e.pairs != nil {
			return e, nil
		}
	}
	e.cols = make([]int32, len(cands.Items))
	for i, it := range cands.Items {
		e.cols[i] = v.column(it)
	}
	return e, nil
}

// pairMatrix counts a dense C₂ by pairs.  Columns are numbered in item
// order, so column c is rank c of itemset.Flat.PairIndex, and a
// transaction's candidate items, mapped to columns, stay ascending: every
// pair of them that starts with a row's first item a is a candidate, the
// one at base[a]+b of the count vector.  A transaction of m candidate items
// costs at most m(m-1)/2 increments where the column kernel ANDs every
// candidate's pages.
type pairMatrix struct {
	base []int32 // column → its row's base, or itemset.NoPair when no candidate starts with it
	buf  []int32 // one transaction's candidate columns
}

// newPairMatrix returns the matrix for the candidates, or nil when
// PairIndex does not recognise them: a set with a hole, as a round-robin
// share or a hash-filtered C₂, or with repeated or unordered pairs keeps the
// column kernel.  It also fixes v's lengths to come from last TIDs.
func newPairMatrix(v *vertical, cands itemset.Flat, span int) *pairMatrix {
	rank, base, ok := cands.PairIndex(span)
	if !ok {
		return nil
	}
	p := &pairMatrix{base: make([]int32, v.sink)}
	for it, r := range rank {
		if r != itemset.NoPair {
			p.base[r] = base[it]
		}
	}
	v.last = make([]int, v.sink+1)
	for c := range v.last {
		v.last[c] = -1
	}
	return p
}

// wordOps is the column model's charge for intersecting every candidate
// pair: two words a step up to the shorter column.  The candidates are
// whole rows, so row a holds the pair of column a with every column above
// it.
func (p *pairMatrix) wordOps(words []int) (ops int64) {
	for a, s := range p.base {
		if s == itemset.NoPair {
			continue
		}
		for _, w := range words[a+1 : len(p.base)] {
			ops += int64(2 * min(words[a], w))
		}
	}
	return ops
}

// add counts the transactions' candidate pairs into counts, one TID each,
// and returns the items it touched.  Like vertical.add, every item maps
// through the remap (the sink included) and records its column's last TID
// without a branch on the sink.
//
//checkinv:hotpath
func (p *pairMatrix) add(v *vertical, counts []int64, txns []itemset.Transaction) (touched int64) {
	longest := 0
	for i := range txns {
		longest = max(longest, len(txns[i].Items))
	}
	if len(p.buf) < longest {
		p.buf = make([]int32, longest)
	}
	remap, sink, last, base, buf := v.remap, v.sink, v.last, p.base, p.buf
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
			s := base[a]
			if s == itemset.NoPair {
				continue
			}
			for _, b := range row[j+1:] {
				counts[s+b]++
			}
		}
	}
	return touched
}

type bitsetEngine struct {
	k    int
	ix   *vertical
	cols []int32 // candidate i's columns are cols[i*k : i*k+k]; none on a pair-matrix engine
	// own, on a carried engine, lists its items' columns in the index it
	// shares, which also holds columns of the passes before; a fresh
	// engine's own columns are every real column.  span is the width of the
	// remap a fresh engine would build.  Both are only for MemoryBytes.
	own  []int32
	span int
	// numItems is the builder's Config.NumItems, for Carry's span.
	numItems int
	// pairs, when set, counts instead of the rows (a k = 2 engine over a
	// dense C₂).
	pairs   *pairMatrix
	counts  []int64
	counted bool
	carried bool // built by Carry: the rows are the index's, not set here
	stats   Stats
}

func (e *bitsetEngine) Len() int { return len(e.counts) }

// CountBlock appends the block to the vertical index; the actual counting
// is deferred to Counts, one intersection per candidate.  A pair-matrix
// engine counts the block's pairs here instead, but its WordOps are charged
// in Counts all the same.
//
// A carried engine's index already holds the block, so it only counts it, as
// Skim does.
func (e *bitsetEngine) CountBlock(txns []itemset.Transaction, rootFilter *bitmap.Bitmap) {
	// rootFilter is ignored: it only ever excludes candidates outside this
	// engine's own candidate set (the grid builds per-row engines over the
	// filtered share), so intersection counts are unaffected.
	var touched int64
	switch {
	case e.carried:
		for i := range txns {
			touched += int64(len(txns[i].Items))
		}
	case e.pairs != nil:
		touched = e.pairs.add(e.ix, e.counts, txns)
	default:
		touched = e.ix.add(txns)
		e.ix.items += touched
	}
	e.stats.Transactions += int64(len(txns))
	e.stats.ItemTouches += touched
}

// Skim stands in for CountBlock on a carried engine, for a block of txns
// transactions holding items items that its index already holds: the
// engine reads nothing and counts what CountBlock would have.
func (e *bitsetEngine) Skim(txns, items int) {
	e.stats.Transactions += int64(txns)
	e.stats.ItemTouches += int64(items)
}

// Skimmed reports an error unless the blocks a carried engine was told of
// add up to the transactions and items of the index it carries: a scan that
// differs from the one the index was built from has no counts here.
func (e *bitsetEngine) Skimmed() error {
	if !e.carried {
		return nil
	}
	if e.stats.Transactions != int64(e.ix.n) || e.stats.ItemTouches != e.ix.items {
		return fmt.Errorf("countengine: bitset: the scan holds %d transactions of %d items, the carried index %d of %d",
			e.stats.Transactions, e.stats.ItemTouches, e.ix.n, e.ix.items)
	}
	return nil
}

// Carry returns an engine over cands that counts from e's rows: the next
// pass's engine, over the same transactions in the same order.  Its counts,
// Stats and MemoryBytes (once the scan is skimmed) are a fresh engine's, and
// the columns it reads are its items' columns in e's index, whose logical
// lengths they keep.  It returns nil when there are no rows to count from —
// e has not counted, or counted in the pair matrix, which keeps none, or an
// item of cands has no column in them — or no candidates to count.
func (e *bitsetEngine) Carry(cands itemset.Flat) (Carrier, error) {
	v := e.ix
	if !e.counted || e.pairs != nil || cands.Len() == 0 {
		return nil, nil
	}
	span, err := remapSpan(cands, e.numItems)
	if err != nil {
		return nil, err
	}
	used := make([]bool, span)
	for _, it := range cands.Items {
		used[it] = true
	}
	var own []int32
	for it, u := range used {
		if !u {
			continue
		}
		c := v.column(itemset.Item(it))
		if c == v.sink {
			return nil, nil
		}
		own = append(own, c)
	}
	n := &bitsetEngine{k: cands.K, ix: v, own: own, span: span, numItems: e.numItems, carried: true,
		counts: make([]int64, cands.Len()), stats: Stats{BuildOps: int64(len(own))}}
	n.cols = make([]int32, len(cands.Items))
	for i, it := range cands.Items {
		n.cols[i] = v.column(it)
	}
	return n, nil
}

// Counts intersects each candidate's item bitmaps.  The work happens here,
// not in CountBlock; callers snapshot Stats around the call to charge it.
// The charge is k words per step up to the candidate's shortest column; the
// host walks the rows once, every candidate's pages per row; a pair-matrix
// engine has no rows, and its counts are already in place.
//
//checkinv:hotpath
func (e *bitsetEngine) Counts() []int64 {
	if !e.counted {
		e.counted = true
		if e.ix.words == nil {
			e.ix.words = e.ix.columnWords()
		}
		k, words := e.k, e.ix.words
		if e.pairs != nil {
			e.stats.WordOps += e.pairs.wordOps(words)
		}
		for i := 0; k > 0 && i < len(e.cols)/k; i++ {
			cols := e.cols[i*k : i*k+k]
			nw := words[cols[0]]
			for _, c := range cols[1:] {
				nw = min(nw, words[c])
			}
			e.stats.WordOps += int64(nw * k)
		}
		for _, r := range e.ix.rows {
			intersect(e.counts, r, e.cols, k)
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

// MemoryBytes is the column model's size: the count vector, the remap and
// every real column at its logical length (the sink and the pages' unused
// tails are host detail).
func (e *bitsetEngine) MemoryBytes() int {
	bytes := len(e.counts)*8 + e.span*4
	words := e.ix.columnWords()
	if !e.carried {
		for _, w := range words[:e.ix.sink] {
			bytes += w * 8
		}
	}
	for _, c := range e.own {
		bytes += words[c] * 8
	}
	return bytes
}
