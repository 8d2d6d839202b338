// Package hashtree implements the candidate hash tree of the Apriori
// algorithm (Agrawal & Srikant, VLDB '94), the data structure every
// formulation in the paper counts support with.
//
// Internal nodes hash one item of a candidate; leaves store candidate
// itemsets and their running support counts.  The Subset operation walks a
// transaction through the tree and bumps the counts of every candidate the
// transaction contains.  The tree keeps detailed operation counters
// (traversal steps, distinct leaf visits, leaf checks) because the paper's
// Section IV analysis — and Figure 11 — are stated in exactly those units.
//
// The counters are the cost model and are charged exactly as the textbook
// tree would earn them; what the host executes is a separate matter.  A leaf
// is scanned the first time a transaction reaches it, one bitmap test per
// item of each candidate.  The exception is pass 2's dense tree.  When k = 2,
// Fanout <= 64, some leaf overflows MaxLeaf and the candidates are whole
// first-item rows of a complete C2 (NewFlat verifies it), the tree is
// pair-indexed: it is shaped from a histogram of the candidates' hashes and
// holds the direct pair index and the counts, no candidate slots.  It is
// neither walked nor scanned.  Subset runs one flat loop over the
// transaction's root items (subsetPairs): each looks itself up with every
// later item, and the charges walk would earn come in closed form, the leaves
// below a depth-1 node as a Fanout-bit mask of the cells not yet charged.
// DESIGN.md, "Host work vs charged work", has the exactness argument.
package hashtree

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"parapriori/internal/bitmap"
	"parapriori/internal/itemset"
)

// Config controls the shape of the tree.
type Config struct {
	// Fanout is the width of the hash tables at internal nodes.  The paper's
	// running example uses 3 (hash function "1,4,7 / 2,5,8 / 3,6,9", i.e.
	// item mod 3); real deployments size the tables in the tens so that a
	// depth-k tree has far more leaves than a transaction has potential
	// candidates (the L >> C regime of the Section IV analysis — with a
	// tiny fanout the pass-2 tree saturates at Fanout² leaves and every
	// transaction visits all of them).  Defaults to 32.
	Fanout int
	// MaxLeaf is the maximum number of candidates a leaf may hold before it
	// splits (provided it is shallow enough to split).  This is the knob
	// that sets S, the average number of candidates per leaf, in the
	// Section IV analysis.  Defaults to 16.
	MaxLeaf int
}

// Validate reports a shape no tree may take.  Zero or negative fields select
// the defaults; a Fanout of 1 hashes every item to the one child, so a split
// never divides its candidates, and the memory estimates that decide CD's
// multi-scan (Figure 12) divide by Fanout-1.
func (c Config) Validate() error {
	if c.Fanout == 1 {
		return errors.New("hashtree: Fanout 1 cannot split a leaf (want 0 for the default, or at least 2)")
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.Fanout <= 0 {
		c.Fanout = 32
	}
	if c.MaxLeaf <= 0 {
		c.MaxLeaf = 16
	}
	return c
}

// Stats accumulates the operation counts of the Section IV cost model.
type Stats struct {
	// Traversals is the number of internal-node hash steps taken by Subset,
	// the unit of t_travers.
	Traversals int64
	// LeafVisits is the number of *distinct* leaf nodes visited, summed over
	// transactions: the measured counterpart of V(i,j) (Figure 11).
	LeafVisits int64
	// LeafChecks is the number of candidate-vs-transaction containment
	// tests performed at leaves, the unit of t_check.
	LeafChecks int64
	// Transactions is the number of Subset calls, so that
	// LeafVisits/Transactions is the per-transaction average of Figure 11.
	Transactions int64
	// Inserts is the number of candidate insertions (hash-tree construction
	// cost, the O(M) term of Equations 3–7).
	Inserts int64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Traversals += other.Traversals
	s.LeafVisits += other.LeafVisits
	s.LeafChecks += other.LeafChecks
	s.Transactions += other.Transactions
	s.Inserts += other.Inserts
}

// AvgLeafVisits returns the average number of distinct leaves visited per
// transaction, the y-axis of Figure 11.
func (s Stats) AvgLeafVisits() float64 {
	if s.Transactions == 0 {
		return 0
	}
	return float64(s.LeafVisits) / float64(s.Transactions)
}

// node is one slot of the tree's flat node array.
type node struct {
	// child is the index of the first of an internal node's Fanout children,
	// which sit next to each other in Tree.nodes; 0 marks a leaf (the root
	// is nobody's child).
	child int32
	// start and end delimit a node's candidates in slot order (the order of
	// Tree.perm and Tree.items, which a pair-indexed tree does not keep).
	start, end int32
	// stamp is the ID of the last Subset call that was charged for this leaf; it
	// implements the paper's "if this node is revisited due to a different
	// candidate from the same transaction, no checking needs to be
	// performed" memoization.  On an internal depth-1 node of a pair-indexed
	// tree it is the last call that reset the node's seen mask.
	stamp uint64
}

// Tree is a candidate hash tree for candidates of a single size k.
//
// The candidates are stored leaf by leaf: slot s of the tree holds candidate
// perm[s] and its k items at items[s*k:(s+1)*k], so checking a leaf reads one
// contiguous run of memory.  A pair-indexed tree stores no slot: its perm,
// items and marks are nil.
type Tree struct {
	k     int
	cfg   Config
	nodes []node
	perm  []int32
	items []itemset.Item
	// counts is indexed like NewFlat's cands, not by slot: that is the order
	// Counts returns and the one the pair index computes, so only a match
	// found by slot goes through perm.
	counts []int64
	// marks is a bitmap over the candidates' item range.  The first leaf
	// scan of a Subset call sets the bits of the transaction's items
	// (marked records it) and the call clears them on return, which turns a
	// scanned leaf's containment test into k bit tests.  A call that scans
	// no leaf never touches it.
	marks  []uint64
	marked bool
	// mask is Fanout-1 when Fanout is a power of two, so an item hashes
	// with an AND; otherwise it is 0 and an item hashes with the modulo.
	mask int32
	// pairBase and pairCol are the direct index of a complete C2, both
	// indexed by item and nil unless NewFlat verified its conditions (see
	// itemset.Flat.PairIndex): candidate {a, b} is
	// cands[pairBase[a]+pairCol[b]], and either entry is itemset.NoPair for
	// an item that heads no row, or appears in no candidate.
	pairBase, pairCol []int32
	// seen holds, per depth-1 node of a pair-indexed tree, the bit of each
	// child cell the current Subset call has charged; it is stale unless the
	// node's stamp is the call's.
	seen []uint64
	// txn and offs are the state of one walk: the transaction and the child
	// offset (hash) of each of its items.
	txn  itemset.Itemset
	offs []int32

	leaves int
	stats  Stats
	stamp  uint64
}

// NewFlat builds a hash tree over the candidates of cands, each a sorted set
// of cands.K non-negative items.  The tree copies what it needs of the items;
// cands is only read.
//
// The shape is the one inserting the candidates one at a time produces — a
// node at depth d < k is internal exactly when more than MaxLeaf candidates
// hash to it.  A pair-indexed tree (see pairTree) takes it from a histogram;
// every other tree is built top-down, by a stable counting sort per internal
// node (split).
func NewFlat(cands itemset.Flat, cfg Config) (*Tree, error) {
	t, numItems, err := newRoot(cands, cfg)
	if err != nil {
		return nil, err
	}
	if t.k == 2 && t.pairTree(cands, numItems) {
		return t, nil
	}
	t.build(cands.Items, numItems)
	return t, nil
}

// newRoot validates cands and returns a one-leaf tree over them, with no
// candidate stored yet, and one more than the largest item.
func newRoot(cands itemset.Flat, cfg Config) (*Tree, int, error) {
	cfg = cfg.withDefaults()
	k, m := cands.K, cands.Len()
	span, err := cands.Check()
	if err != nil {
		return nil, 0, fmt.Errorf("hashtree: %w", err)
	}
	t := &Tree{
		k:      k,
		cfg:    cfg,
		nodes:  []node{{end: int32(m)}},
		counts: make([]int64, m),
		leaves: 1,
		stats:  Stats{Inserts: int64(m)},
	}
	if cfg.Fanout&(cfg.Fanout-1) == 0 {
		t.mask = int32(cfg.Fanout - 1)
	}
	return t, span, nil
}

// build shapes the tree by split and stores the candidates slot by slot, with
// the mark bitmap their scans read.
func (t *Tree) build(items []itemset.Item, numItems int) {
	m := len(t.counts)
	t.perm = make([]int32, m)
	for i := range t.perm {
		t.perm[i] = int32(i)
	}
	t.marks = make([]uint64, (numItems+63)/64)
	t.split(0, 0, items, make([]int32, m), make([]int32, t.cfg.Fanout))
	k := t.k
	t.items = make([]itemset.Item, 0, m*k)
	for _, ci := range t.perm {
		t.items = append(t.items, items[int(ci)*k:int(ci+1)*k]...)
	}
}

// split turns node ni (at the given depth) into an internal node if it holds
// more candidates than a leaf may and has an item left to hash on, and
// recurses into its children.  items is the candidates' flat item array,
// stride k; tmp (len(perm)) and cursor (Fanout) are scratch space shared by
// the whole build.
//
//checkinv:hotpath
func (t *Tree) split(ni int32, depth int, items []itemset.Item, tmp, cursor []int32) {
	start, end := t.nodes[ni].start, t.nodes[ni].end
	if int(end-start) <= t.cfg.MaxLeaf || depth >= t.k {
		return
	}
	first := int32(len(t.nodes))
	t.nodes[ni].child = first
	t.nodes = append(t.nodes, make([]node, t.cfg.Fanout)...)
	t.leaves += t.cfg.Fanout - 1
	for h := range cursor {
		cursor[h] = 0
	}
	k := t.k
	for _, ci := range t.perm[start:end] {
		cursor[t.hash(items[int(ci)*k+depth])]++
	}
	pos := start
	for h, n := range cursor {
		child := &t.nodes[first+int32(h)]
		child.start, child.end = pos, pos+n
		cursor[h] = pos
		pos += n
	}
	for _, ci := range t.perm[start:end] {
		h := t.hash(items[int(ci)*k+depth])
		tmp[cursor[h]] = ci
		cursor[h]++
	}
	copy(t.perm[start:end], tmp[start:end])
	for h := int32(0); h < int32(t.cfg.Fanout); h++ {
		t.split(first+h, depth+1, items, tmp, cursor)
	}
}

// pairTree makes a k = 2 tree pair-indexed, or leaves it untouched and
// reports false.  A Fanout above 64 declines, since subsetPairs holds a
// node's cells in one word.  One Fanout × Fanout histogram of (hash(c0),
// hash(c1)) over the candidates is the whole shape split would produce: row
// h0 is the depth-1 node's size, and cell (h0, h1) the size of its child h1
// if the node is internal.  The tree gets the index when some depth-2 cell
// under an internal depth-1 node holds more than MaxLeaf (it is saturated;
// such a cell's row is internal too) and cands.PairIndex verifies whole
// ascending rows.
// Its nodes then come from the histogram's prefix sums, in split's order and
// with split's ranges, and it stores nothing per candidate but the count:
// subsetPairs answers every arrival through the index, so no slot is read.
func (t *Tree) pairTree(cands itemset.Flat, numItems int) bool {
	f, items := t.cfg.Fanout, cands.Items
	if f > 64 {
		return false
	}
	hist := make([]int32, f*f)
	for i := 0; i < len(items); i += 2 {
		hist[int(t.hash(items[i]))*f+int(t.hash(items[i+1]))]++
	}
	if slices.Max(hist) <= int32(t.cfg.MaxLeaf) {
		return false
	}
	rank, base, ok := cands.PairIndex(numItems)
	if !ok {
		return false
	}
	t.pairBase, t.pairCol = base, rank
	t.seen = make([]uint64, f)
	rows := make([]int32, f)
	internal := 0
	for h0 := range rows {
		for _, n := range hist[h0*f : (h0+1)*f] {
			rows[h0] += n
		}
		if int(rows[h0]) > t.cfg.MaxLeaf {
			internal++
		}
	}
	t.nodes = make([]node, 1+f*(1+internal))
	t.nodes[0] = node{child: 1, end: int32(len(t.counts))}
	t.leaves = 1 + (f-1)*(1+internal)
	next, pos := int32(1+f), int32(0)
	for h0, size := range rows {
		n := &t.nodes[1+h0]
		n.start, n.end = pos, pos+size
		pos += size
		if int(size) <= t.cfg.MaxLeaf {
			continue
		}
		n.child = next
		at := n.start
		for _, cell := range hist[h0*f : (h0+1)*f] {
			t.nodes[next].start, t.nodes[next].end = at, at+cell
			at += cell
			next++
		}
	}
	return true
}

// Len returns the number of candidates in the tree (M in the analysis).
func (t *Tree) Len() int { return len(t.counts) }

// Leaves returns the number of leaf nodes (L in the analysis).
func (t *Tree) Leaves() int { return t.leaves }

// Stats returns the accumulated operation counters.
func (t *Tree) Stats() Stats { return t.stats }

// hash is the child offset of a non-negative item.
func (t *Tree) hash(it itemset.Item) int32 {
	if t.mask != 0 {
		return int32(it) & t.mask
	}
	return int32(it) % int32(t.cfg.Fanout)
}

// mark sets the bits of the current transaction's items in marks.
func (t *Tree) mark() {
	for _, it := range t.txn {
		if w := uint32(it) >> 6; int(w) < len(t.marks) {
			t.marks[w] |= 1 << (uint32(it) & 63)
		}
	}
	t.marked = true
}

// Subset counts the candidates contained in txn and returns the number of
// distinct leaf nodes visited for this transaction (the per-transaction
// quantity averaged in Figure 11).  A pair-indexed tree runs subsetPairs,
// every other tree walks from the root and scans each leaf it reaches; both
// charge what the textbook tree's walk earns.
//
// txn must hold the Itemset invariant (strictly increasing: a repeated item
// would count a pair of a pair-indexed tree twice) and no negative item (its
// hash would index nodes below the child block).  The miners' first pass
// turns an item outside the source's vocabulary, or out of order, into a
// typed error (*itemset.ItemRangeError, *itemset.ItemOrderError) before any
// tree is built.
//
// rootFilter, if non-nil, is consulted only for the *starting* item of a
// candidate (the loop at the root): items whose bit is clear are skipped.
// This is IDD's bitmap pruning, built from the first items of the tree's own
// candidates.  A candidate whose first item the filter rejects is outside
// that contract: it is counted only if an admitted path happens to reach its
// leaf and the leaf is scanned, never on a pair-indexed tree.  Pass nil for
// the serial algorithm, CD and DD.
//
//checkinv:hotpath
func (t *Tree) Subset(txn itemset.Itemset, rootFilter *bitmap.Bitmap) int {
	t.stamp++
	t.stats.Transactions++
	if len(txn) < t.k {
		return 0 // too short to contain any candidate
	}
	if t.pairCol != nil {
		return t.subsetPairs(txn, rootFilter)
	}
	t.txn = txn
	visited := 0
	if root := &t.nodes[0]; root.child == 0 {
		// Degenerate tree: everything sits in the root leaf.
		visited = 1
		t.stats.LeafVisits++
		t.stats.LeafChecks += int64(root.end - root.start)
		t.scanLeaf(root)
	} else {
		// Hash every item once; the walk reaches each of them many times.
		offs := t.offs[:0]
		for _, it := range txn {
			offs = append(offs, t.hash(it))
		}
		t.offs = offs
		// The root loop: every transaction item that passes the filter is
		// a possible first item of a candidate.
		last := len(txn) - t.k
		for i := 0; i <= last; i++ {
			if rootFilter != nil && !rootFilter.Test(int(txn[i])) {
				continue
			}
			t.stats.Traversals++
			visited += t.walk(root.child+offs[i], i+1, 1)
		}
	}
	if t.marked {
		for _, it := range txn {
			if w := uint32(it) >> 6; int(w) < len(t.marks) {
				t.marks[w] = 0
			}
		}
		t.marked = false
	}
	t.txn = nil
	return visited
}

// walk recurses below an internal-node hash step of a scanning tree: node ni
// was reached having consumed depth items, the last of them txn[pos-1], with
// txn[pos:] remaining.  It is the cost model: every hash step and every
// distinct leaf is charged here, and a leaf is scanned on its first visit.
//
//checkinv:hotpath
func (t *Tree) walk(ni int32, pos, depth int) int {
	n := &t.nodes[ni]
	if n.child == 0 {
		if n.stamp == t.stamp {
			return 0
		}
		n.stamp = t.stamp
		t.stats.LeafVisits++
		t.stats.LeafChecks += int64(n.end - n.start)
		t.scanLeaf(n)
		return 1
	}
	// Need k-depth more items; the next one can start no later than
	// len(txn)-(k-depth).
	txn, offs := t.txn, t.offs
	last := len(txn) - (t.k - depth)
	if last < pos {
		return 0
	}
	t.stats.Traversals += int64(last - pos + 1)
	visited := 0
	for i := pos; i <= last; i++ {
		visited += t.walk(n.child+offs[i], i+1, depth+1)
	}
	return visited
}

// subsetPairs is Subset on a pair-indexed tree, whose root is internal and
// whose depth-1 nodes are root children 1..Fanout.  It counts and charges
// what walk would, in one loop over the root items, back to front:
//
//   - Root item i that passes the filter takes one hash step to its depth-1
//     node x, and, when x is internal, one more for each of txn[i+1:] (walk's
//     last-pos+1).  A depth-1 leaf is charged on its first arrival.
//   - Below an internal x, root item i reaches the cells that txn[i+1:]
//     hashes to, held as a mask.  Charging x's cells not charged yet this
//     call (seen, reset through x's stamp) charges each distinct leaf once,
//     in any order; since a later root item's suffix is part of an earlier
//     one's, the union is the earliest admitted one's cells.
//   - A transaction is strictly increasing, so each candidate it contains is
//     reached by its own first item and looked up as pair (txn[i], txn[j]),
//     j > i, exactly once; nothing is scanned.
//
//checkinv:hotpath
func (t *Tree) subsetPairs(txn itemset.Itemset, rootFilter *bitmap.Bitmap) int {
	nodes, seen, counts := t.nodes, t.seen, t.counts
	pairBase, pairCol := t.pairBase, t.pairCol
	var traversals, visits, checks int64
	last := len(txn) - 1
	cells := uint64(1) << t.hash(txn[last]) // the cells of txn[i+1:]
	for i := last - 1; i >= 0; i-- {
		a, h := txn[i], t.hash(txn[i])
		if rootFilter == nil || rootFilter.Test(int(a)) {
			traversals++
			x := &nodes[1+h]
			if x.child == 0 {
				if x.stamp != t.stamp {
					x.stamp = t.stamp
					visits++
					checks += int64(x.end - x.start)
				}
			} else {
				traversals += int64(last - i)
				if x.stamp != t.stamp {
					x.stamp = t.stamp
					seen[h] = 0
				}
				fresh := cells &^ seen[h]
				seen[h] |= fresh
				for ; fresh != 0; fresh &= fresh - 1 {
					leaf := &nodes[x.child+int32(bits.TrailingZeros64(fresh))]
					visits++
					checks += int64(leaf.end - leaf.start)
				}
			}
			if int(a) < len(pairBase) {
				row := pairBase[a]
				for _, b := range txn[i+1:] {
					if int(b) >= len(pairCol) {
						break
					}
					if ci := row + pairCol[b]; ci >= 0 {
						counts[ci]++
					}
				}
			}
		}
		cells |= 1 << h
	}
	t.stats.Traversals += traversals
	t.stats.LeafVisits += visits
	t.stats.LeafChecks += checks
	return int(visits)
}

// scanLeaf bumps the count of every candidate in the leaf whose items are
// all marked, i.e. that the current transaction contains.  The first
// non-empty leaf of a Subset call marks the transaction.
//
//checkinv:hotpath
func (t *Tree) scanLeaf(n *node) {
	if n.start == n.end {
		return
	}
	if !t.marked {
		t.mark()
	}
	k, marks := t.k, t.marks
	items := t.items[int(n.start)*k : int(n.end)*k]
candidates:
	for s := n.start; s < n.end; s++ {
		cand := items[:k]
		items = items[k:]
		for _, it := range cand {
			if marks[uint32(it)>>6]&(1<<(uint32(it)&63)) == 0 {
				continue candidates
			}
		}
		t.counts[t.perm[s]]++
	}
}

// Counts returns the support counts of the candidates in the order NewFlat
// received them.  All processors in CD build their trees over the same
// (generation-ordered) candidates, so index i refers to the same candidate
// everywhere — that is what makes the count vectors reducible.
//
// The vector is the tree's own, not a copy: later Subset calls count on into
// it, so a caller that wants a snapshot clones it.
func (t *Tree) Counts() []int64 {
	return t.counts
}

// MemoryBytes estimates the resident size of the tree: candidates plus node
// overhead.  The CD memory cap of Figure 12 is enforced against this
// estimate.
func (t *Tree) MemoryBytes() int {
	// Per candidate: header (itemset slice header + count) and k items.
	candBytes := len(t.counts) * (32 + 4*t.k)
	// Per internal node: fanout child pointers; per leaf: slice header.
	internal := (t.leaves - 1) / (t.cfg.Fanout - 1) // full fanout assumption
	if internal < 0 {
		internal = 0
	}
	nodeBytes := internal*8*t.cfg.Fanout + t.leaves*48
	return candBytes + nodeBytes
}

// EstimateMemoryBytes predicts the resident size of a tree holding m
// candidates of size k without building it, so that CD can decide how many
// tree partitions it needs before construction (Figure 12).
func EstimateMemoryBytes(m, k int, cfg Config) int {
	cfg = cfg.withDefaults()
	leaves := m / cfg.MaxLeaf
	if leaves < 1 {
		leaves = 1
	}
	internal := leaves / (cfg.Fanout - 1)
	return m*(32+4*k) + internal*8*cfg.Fanout + leaves*48
}
