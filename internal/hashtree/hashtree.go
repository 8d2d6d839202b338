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
package hashtree

import (
	"fmt"

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
	// start and end delimit a leaf's candidates in the slot-ordered arrays
	// (Tree.perm, Tree.items, Tree.counts).
	start, end int32
	// stamp is the ID of the last Subset call that checked this leaf; it
	// implements the paper's "if this node is revisited due to a different
	// candidate from the same transaction, no checking needs to be
	// performed" memoization.
	stamp uint64
}

// Tree is a candidate hash tree for candidates of a single size k.
//
// The candidates are stored leaf by leaf: slot s of the tree holds candidate
// perm[s], its k items at items[s*k:(s+1)*k] and its count at counts[s], so
// checking a leaf reads one contiguous run of memory.
type Tree struct {
	k      int
	cfg    Config
	nodes  []node
	perm   []int32
	items  []itemset.Item
	counts []int64
	// marks is a bitmap over the candidates' item range.  Subset sets the
	// bits of the transaction's items for the duration of one call, which
	// turns a leaf's containment test into k bit tests.
	marks  []uint64
	leaves int
	stats  Stats
	stamp  uint64
	// collect, when non-nil, receives the index of every candidate the
	// current Subset call matches (used by DHP transaction trimming).
	collect *[]int32
}

// New builds a hash tree over the given candidate itemsets, all of which
// must have exactly k non-negative items in sorted order.  The tree copies
// the items; cands is only read.
//
// The shape is the one inserting the candidates one at a time produces — a
// node at depth d < k is internal exactly when more than MaxLeaf candidates
// hash to it, and a leaf keeps its candidates in the order given — but it is
// built top-down, by a stable counting sort per internal node.
func New(k int, cands []itemset.Itemset, cfg Config) (*Tree, error) {
	cfg = cfg.withDefaults()
	maxItem := itemset.Item(-1)
	for _, c := range cands {
		if len(c) != k {
			return nil, fmt.Errorf("hashtree: candidate %v has %d items, want %d", c, len(c), k)
		}
		if !c.Valid() || (k > 0 && c[0] < 0) {
			return nil, fmt.Errorf("hashtree: candidate %v is not a sorted set of non-negative items", c)
		}
		if k > 0 && c[k-1] > maxItem {
			maxItem = c[k-1]
		}
	}
	t := &Tree{
		k:      k,
		cfg:    cfg,
		nodes:  []node{{end: int32(len(cands))}},
		perm:   make([]int32, len(cands)),
		items:  make([]itemset.Item, 0, len(cands)*k),
		counts: make([]int64, len(cands)),
		marks:  make([]uint64, (int(maxItem)+64)/64),
		leaves: 1,
		stats:  Stats{Inserts: int64(len(cands))},
	}
	for i := range t.perm {
		t.perm[i] = int32(i)
	}
	t.split(0, 0, cands, make([]int32, len(cands)), make([]int32, cfg.Fanout))
	for _, ci := range t.perm {
		t.items = append(t.items, cands[ci]...)
	}
	return t, nil
}

// split turns node ni (at the given depth) into an internal node if it holds
// more candidates than a leaf may and has an item left to hash on, and
// recurses into its children.  tmp (len(perm)) and cursor (Fanout) are
// scratch space shared by the whole build.
func (t *Tree) split(ni int32, depth int, cands []itemset.Itemset, tmp, cursor []int32) {
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
	for _, ci := range t.perm[start:end] {
		cursor[t.hash(cands[ci][depth])]++
	}
	pos := start
	for h, n := range cursor {
		child := &t.nodes[first+int32(h)]
		child.start, child.end = pos, pos+n
		cursor[h] = pos
		pos += n
	}
	for _, ci := range t.perm[start:end] {
		h := t.hash(cands[ci][depth])
		tmp[cursor[h]] = ci
		cursor[h]++
	}
	copy(t.perm[start:end], tmp[start:end])
	for h := int32(0); h < int32(t.cfg.Fanout); h++ {
		t.split(first+h, depth+1, cands, tmp, cursor)
	}
}

// MustNew is New for statically correct inputs (tests, examples).
func MustNew(k int, cands []itemset.Itemset, cfg Config) *Tree {
	t, err := New(k, cands, cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Len returns the number of candidates in the tree (M in the analysis).
func (t *Tree) Len() int { return len(t.perm) }

// Leaves returns the number of leaf nodes (L in the analysis).
func (t *Tree) Leaves() int { return t.leaves }

// Stats returns the accumulated operation counters.
func (t *Tree) Stats() Stats { return t.stats }

// ResetStats zeroes the operation counters.
func (t *Tree) ResetStats() { t.stats = Stats{} }

func (t *Tree) hash(it itemset.Item) int { return int(it) % t.cfg.Fanout }

// Subset counts the candidates contained in txn and returns the number of
// distinct leaf nodes visited for this transaction (the per-transaction
// quantity averaged in Figure 11).
//
// rootFilter, if non-nil, is consulted only for the *starting* item of a
// candidate (the loop at the root): items for which it reports false are
// skipped.  This is IDD's bitmap pruning; pass nil for the serial algorithm,
// CD and DD.
//
//checkinv:hotpath
func (t *Tree) Subset(txn itemset.Itemset, rootFilter func(itemset.Item) bool) int {
	t.stamp++
	t.stats.Transactions++
	if len(txn) < t.k {
		return 0 // too short to contain any candidate
	}
	for _, it := range txn {
		if w := uint32(it) >> 6; int(w) < len(t.marks) {
			t.marks[w] |= 1 << (uint32(it) & 63)
		}
	}
	visited := 0
	if root := &t.nodes[0]; root.child == 0 {
		// Degenerate tree: everything sits in the root leaf.
		visited = 1
		t.stats.LeafVisits++
		t.checkLeaf(root)
	} else {
		// The root loop: every transaction item that passes the filter is
		// a possible first item of a candidate.
		last := len(txn) - t.k
		for i := 0; i <= last; i++ {
			if rootFilter != nil && !rootFilter(txn[i]) {
				continue
			}
			t.stats.Traversals++
			visited += t.walk(root.child+int32(t.hash(txn[i])), txn, i+1, 1)
		}
	}
	for _, it := range txn {
		if w := uint32(it) >> 6; int(w) < len(t.marks) {
			t.marks[w] = 0
		}
	}
	return visited
}

// walk recurses below an internal-node hash step: node ni was reached having
// consumed depth items, with txn[pos:] remaining.
//
//checkinv:hotpath
func (t *Tree) walk(ni int32, txn itemset.Itemset, pos, depth int) int {
	n := &t.nodes[ni]
	if n.child == 0 {
		if n.stamp == t.stamp {
			return 0 // already checked for this transaction
		}
		n.stamp = t.stamp
		t.stats.LeafVisits++
		t.checkLeaf(n)
		return 1
	}
	visited := 0
	// Need k-depth more items; the next one can start no later than
	// len(txn)-(k-depth).
	last := len(txn) - (t.k - depth)
	for i := pos; i <= last; i++ {
		t.stats.Traversals++
		visited += t.walk(n.child+int32(t.hash(txn[i])), txn, i+1, depth+1)
	}
	return visited
}

// checkLeaf bumps the count of every candidate in the leaf whose items are
// all marked, i.e. that the current transaction contains — the innermost
// loop of the whole miner.
//
//checkinv:hotpath
func (t *Tree) checkLeaf(n *node) {
	t.stats.LeafChecks += int64(n.end - n.start)
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
		t.counts[s]++
		if t.collect != nil {
			*t.collect = append(*t.collect, t.perm[s])
		}
	}
}

// SubsetCollect is Subset plus match reporting: the index (in the order New
// received them) of every candidate contained in txn is also appended to
// *out.  DHP's transaction trimming needs the matches to decide which items
// can still contribute to larger itemsets.
func (t *Tree) SubsetCollect(txn itemset.Itemset, rootFilter func(itemset.Item) bool, out *[]int32) int {
	t.collect = out
	visited := t.Subset(txn, rootFilter)
	t.collect = nil
	return visited
}

// Counts returns the support counts of the candidates in the order New
// received them.  All processors in CD build their trees over the same
// (generation-ordered) candidates, so index i refers to the same candidate
// everywhere — that is what makes the count vectors reducible.
func (t *Tree) Counts() []int64 {
	out := make([]int64, len(t.counts))
	for s, ci := range t.perm {
		out[ci] = t.counts[s]
	}
	return out
}

// MemoryBytes estimates the resident size of the tree: candidates plus node
// overhead.  The CD memory cap of Figure 12 is enforced against this
// estimate.
func (t *Tree) MemoryBytes() int {
	// Per candidate: header (itemset slice header + count) and k items.
	candBytes := len(t.perm) * (32 + 4*t.k)
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
