package hashtree

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"parapriori/internal/bitmap"
	"parapriori/internal/itemset"
	"parapriori/internal/partition"
)

// refTree is the textbook candidate hash tree the flat Tree replaced, kept
// as the reference the differential test compares against: one allocated
// node per tree node, candidates inserted one at a time (a leaf splits the
// moment it overflows), and a leaf check that merges the transaction with
// each candidate (Itemset.ContainsAll).  Same shape rules, same counters.
type refTree struct {
	k       int
	cfg     Config
	root    *refNode
	cands   []itemset.Itemset
	counts  []int64
	stats   Stats
	stamp   uint64
	matches []int32
}

type refNode struct {
	children []*refNode // nil for a leaf
	cands    []int32
	stamp    uint64
}

func newRefTree(k int, cands []itemset.Itemset, cfg Config) *refTree {
	t := &refTree{k: k, cfg: cfg.withDefaults(), root: &refNode{}, cands: cands, counts: make([]int64, len(cands))}
	for ci := range cands {
		t.insert(int32(ci))
	}
	return t
}

func (t *refTree) hash(it itemset.Item) int { return int(it) % t.cfg.Fanout }

func (t *refTree) insert(ci int32) {
	t.stats.Inserts++
	items := t.cands[ci]
	cur, depth := t.root, 0
	for cur.children != nil {
		cur = cur.children[t.hash(items[depth])]
		depth++
	}
	cur.cands = append(cur.cands, ci)
	for len(cur.cands) > t.cfg.MaxLeaf && depth < t.k {
		moved := cur.cands
		cur.cands = nil
		cur.children = make([]*refNode, t.cfg.Fanout)
		for i := range cur.children {
			cur.children[i] = &refNode{}
		}
		for _, m := range moved {
			child := cur.children[t.hash(t.cands[m][depth])]
			child.cands = append(child.cands, m)
		}
		cur = cur.children[t.hash(items[depth])]
		depth++
	}
}

func (t *refTree) subset(txn itemset.Itemset, rootFilter *bitmap.Bitmap) int {
	t.stamp++
	t.stats.Transactions++
	t.matches = t.matches[:0]
	if t.root.children == nil {
		if len(txn) < t.k {
			return 0
		}
		t.stats.LeafVisits++
		t.checkLeaf(t.root, txn)
		return 1
	}
	visited := 0
	for i := 0; i <= len(txn)-t.k; i++ {
		if rootFilter != nil && !rootFilter.Test(int(txn[i])) {
			continue
		}
		t.stats.Traversals++
		visited += t.walk(t.root.children[t.hash(txn[i])], txn, i+1, 1)
	}
	return visited
}

func (t *refTree) walk(n *refNode, txn itemset.Itemset, pos, depth int) int {
	if n.children == nil {
		if n.stamp == t.stamp {
			return 0
		}
		n.stamp = t.stamp
		t.stats.LeafVisits++
		t.checkLeaf(n, txn)
		return 1
	}
	visited := 0
	for i := pos; i <= len(txn)-(t.k-depth); i++ {
		t.stats.Traversals++
		visited += t.walk(n.children[t.hash(txn[i])], txn, i+1, depth+1)
	}
	return visited
}

func (t *refTree) checkLeaf(n *refNode, txn itemset.Itemset) {
	for _, ci := range n.cands {
		t.stats.LeafChecks++
		if txn.ContainsAll(t.cands[ci]) {
			t.counts[ci]++
			t.matches = append(t.matches, ci)
		}
	}
}

func (t *refTree) leaves() int {
	var count func(n *refNode) int
	count = func(n *refNode) int {
		if n.children == nil {
			return 1
		}
		total := 0
		for _, c := range n.children {
			total += count(c)
		}
		return total
	}
	return count(t.root)
}

// randomSets draws n distinct sorted k-itemsets over items [0, nItems).
func randomSets(rng *rand.Rand, n, k, nItems int) []itemset.Itemset {
	seen := map[string]bool{}
	var out []itemset.Itemset
	for len(out) < n {
		s := make(itemset.Itemset, 0, k)
		for _, it := range rng.Perm(nItems)[:k] {
			s = append(s, itemset.Item(it))
		}
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		if !seen[s.Key()] {
			seen[s.Key()] = true
			out = append(out, s)
		}
	}
	return out
}

// differ drives the flat tree and the reference tree with the same candidates
// and 80 random transactions (differTxns).  Transaction items reach past the
// candidates' range and past the last word of the mark bitmap.
func differ(t *testing.T, name string, rng *rand.Rand, k, nItems int, cs []itemset.Itemset, cfg Config, filter *bitmap.Bitmap) *Tree {
	t.Helper()
	txns := make([]itemset.Itemset, 80)
	for i := range txns {
		txn := make([]itemset.Item, rng.Intn(14))
		for j := range txn {
			txn[j] = itemset.Item(rng.Intn(2*nItems + 200))
			if rng.Intn(3) > 0 {
				txn[j] %= itemset.Item(nItems)
			}
		}
		txns[i] = itemset.New(txn...)
	}
	return differTxns(t, name, txns, k, cs, cfg, filter)
}

// differTxns drives the flat tree and the reference tree with the same
// candidates and transactions and demands the same visits, the same matches,
// the same counts, the same number of leaves and the same operation counters.
// A transaction's matches are the candidates whose count its Subset call
// moved, and every move must be by exactly one, so a candidate counted twice
// for one transaction fails.  Every call must leave the mark bitmap clear.
//
// One comparison is narrowed: on a pair-indexed tree, a candidate whose first
// item the filter rejects is left out of the matches and the counts (the
// reference counts it whenever an admitted path collides into its leaf, the
// index never does; Subset's doc puts it outside the filter contract).
// Visits and Stats are compared under every filter.
//
// The tree under test is built from the flat candidates; a second one, built
// by New from the same candidates held as headers, is driven alongside and
// must end with the same visits, counts, Stats and MemoryBytes.
func differTxns(t *testing.T, name string, txns []itemset.Itemset, k int, cs []itemset.Itemset, cfg Config, filter *bitmap.Bitmap) *Tree {
	t.Helper()
	tree, err := NewFlat(mustFlat(k, cs), cfg)
	if err != nil {
		t.Fatalf("%s: NewFlat: %v", name, err)
	}
	headers, ref := mustNew(k, cs, cfg), newRefTree(k, cs, cfg)
	if tree.Leaves() != ref.leaves() {
		t.Fatalf("%s: %d leaves, reference %d", name, tree.Leaves(), ref.leaves())
	}
	inContract := func(ci int32) bool {
		return tree.pairCol == nil || filter == nil || filter.Test(int(cs[ci][0]))
	}
	var matches []int32
	// Counts hands over the tree's own vector, so the previous transaction's
	// counts are a copy.
	before := slices.Clone(tree.Counts())
	for _, set := range txns {
		got := tree.Subset(set, filter)
		if want := ref.subset(set, filter); got != want {
			t.Fatalf("%s: txn %v visited %d leaves, reference %d", name, set, got, want)
		}
		if viaHeaders := headers.Subset(set, filter); viaHeaders != got {
			t.Fatalf("%s: txn %v visited %d leaves of the tree built from headers, %d of the flat one", name, set, viaHeaders, got)
		}
		if w := slices.IndexFunc(tree.marks, func(w uint64) bool { return w != 0 }); w >= 0 {
			t.Fatalf("%s: txn %v left word %d of the mark bitmap set", name, set, w)
		}
		after := tree.Counts()
		matches = matches[:0]
		for ci := range after {
			switch after[ci] - before[ci] {
			case 0:
			case 1:
				matches = append(matches, int32(ci))
			default:
				t.Fatalf("%s: txn %v moved candidate %v's count by %d", name, set, cs[ci], after[ci]-before[ci])
			}
		}
		copy(before, after)
		if !sameSet(matches, ref.matches, inContract) {
			t.Fatalf("%s: txn %v matched %v, reference %v", name, set, matches, ref.matches)
		}
	}
	for ci, got := range tree.Counts() {
		if inContract(int32(ci)) && got != ref.counts[ci] {
			t.Fatalf("%s: candidate %v counted %d, reference %d", name, cs[ci], got, ref.counts[ci])
		}
	}
	if tree.Stats() != ref.stats {
		t.Fatalf("%s: stats %+v, reference %+v", name, tree.Stats(), ref.stats)
	}
	if !slices.Equal(headers.Counts(), tree.Counts()) || headers.Stats() != tree.Stats() || headers.MemoryBytes() != tree.MemoryBytes() {
		t.Fatalf("%s: the tree built from headers counts %v, %+v, %d bytes; the flat one %v, %+v, %d bytes", name,
			headers.Counts(), headers.Stats(), headers.MemoryBytes(), tree.Counts(), tree.Stats(), tree.MemoryBytes())
	}
	return tree
}

// mustFlat is itemset.FlatOf for candidates known to hold k items each.
func mustFlat(k int, cs []itemset.Itemset) itemset.Flat {
	f, err := itemset.FlatOf(k, cs)
	if err != nil {
		panic(err)
	}
	return f
}

// firstItemFilter is IDD's root filter: it admits the first item of every
// candidate and nothing else.
func firstItemFilter(cs []itemset.Itemset) *bitmap.Bitmap {
	return firstsWhere(cs, func(itemset.Item) bool { return true })
}

// rejectingFilter admits about three quarters of the candidates' first items
// and nothing else, so some candidates in the tree can only be found through
// another candidate's path.
func rejectingFilter(rng *rand.Rand, cs []itemset.Itemset) *bitmap.Bitmap {
	admit := map[itemset.Item]bool{}
	for _, c := range cs {
		admit[c[0]] = rng.Intn(4) > 0
	}
	return firstsWhere(cs, func(it itemset.Item) bool { return admit[it] })
}

// firstsWhere returns the bitmap of the candidates' first items that keep
// admits, sized to the largest of them.
func firstsWhere(cs []itemset.Itemset, keep func(itemset.Item) bool) *bitmap.Bitmap {
	n := 0
	for _, c := range cs {
		n = max(n, int(c[0])+1)
	}
	bm := bitmap.New(n)
	for _, c := range cs {
		if keep(c[0]) {
			bm.Set(int(c[0]))
		}
	}
	return bm
}

// TestDifferentialAgainstReference compares the flat tree with the textbook
// one over k = 1..5, fanout 2..32, trees that never split and a root filter
// that rejects some of the candidates' own first items.
func TestDifferentialAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(5)
		nItems := k + 3 + rng.Intn(60)
		cfg := Config{Fanout: 2 + rng.Intn(31), MaxLeaf: 1 + rng.Intn(8)}
		nCands := rng.Intn(120)
		if trial%5 == 0 {
			cfg.MaxLeaf = 1000 // root-leaf degenerate tree
		}
		if limit := binomial(nItems, k); nCands > limit {
			nCands = limit
		}
		cs := randomSets(rng, nCands, k, nItems)
		var filter *bitmap.Bitmap
		if trial%3 == 0 {
			filter = rejectingFilter(rng, cs)
		}
		name := fmt.Sprintf("trial %d k=%d cfg=%+v cands=%d filter=%v", trial, k, cfg, nCands, filter != nil)
		differ(t, name, rng, k, nItems, cs, cfg, filter)
	}
}

// TestDifferentialSaturated forces what the random trials meet only by
// chance: leaves at depth k that hold more than MaxLeaf candidates.  Every
// k-subset of max(10, 3·Fanout) items scattered over max(24, 4·Fanout) is far
// more than Fanout^k·MaxLeaf.  Whole first-item rows at k = 2, in
// lexicographic order or in bin-packing's, must get the direct pair index;
// rows with holes or back to front, DD's round-robin share, a shuffled list,
// duplicates, a repeated row and every k > 2 must not, and are scanned.  Each
// runs without a filter, with IDD's and with a rejecting one, at power-of-two
// fanouts (hashed by mask) and at fanout 3 (by modulo).  At k = 2 the fanouts
// also reach 32 and 64, the widest a depth-1 node's cell mask holds; at
// k >= 3, 3·Fanout items would make too many subsets.
func TestDifferentialSaturated(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, k := range []int{2, 3, 4} {
		fanouts := []int{2, 3, 4, 8}
		if k == 2 {
			fanouts = append(fanouts, 32, 64)
		}
		for _, fanout := range fanouts {
			nItems := max(24, 4*fanout)
			universe := itemset.New(randomSets(rng, 1, max(10, 3*fanout), nItems)[0]...)
			all := subsets(universe, k)
			packed := partition.BinPack(all, 3, 0).Share(1).Itemsets()
			holes := slices.DeleteFunc(slices.Clone(all), func(itemset.Itemset) bool { return rng.Intn(3) == 0 })
			descending := slices.Clone(all) // whole rows, each back to front
			slices.SortStableFunc(descending, func(a, b itemset.Itemset) int {
				if a[0] != b[0] {
					return int(a[0] - b[0])
				}
				return slices.Compare(b, a)
			})
			shuffled := slices.Clone(all)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			shapes := []struct {
				name string
				cs   []itemset.Itemset
				rows bool // whole first-item rows, each contiguous and ascending
			}{
				{"complete", all, true},
				{"bin-packed share", packed, true},
				{"rows with holes", holes, false},
				{"rows descending", descending, false},
				{"round-robin share", partition.RoundRobin(mustFlat(k, all), 3)[1].Itemsets(), false},
				{"shuffled", shuffled, false},
				{"duplicates", append(slices.Clone(all), all[1], all[len(all)/2], all[1]), false},
				{"first row twice", append(slices.Clone(all), all[:binomial(len(universe)-1, k-1)]...), false},
			}
			for _, maxLeaf := range []int{1, 2} {
				for _, sh := range shapes {
					for _, f := range filtersFor(rng, sh.cs) {
						cfg := Config{Fanout: fanout, MaxLeaf: maxLeaf}
						name := fmt.Sprintf("%s k=%d cfg=%+v filter=%s", sh.name, k, cfg, f.name)
						tree := differ(t, name, rng, k, nItems, sh.cs, cfg, f.fn)
						if leafSizes(tree)[k].max <= maxLeaf {
							t.Errorf("%s: no saturated leaf", name)
						}
						if got, want := tree.pairCol != nil, k == 2 && sh.rows; got != want {
							t.Errorf("%s: direct pair index = %v, want %v", name, got, want)
						}
					}
				}
			}
		}
	}
}

// TestDifferentialPairIndexedSmallLeaves gives a pair-indexed tree every
// kind of leaf, at every fanout: a complete C2 over the class-0 items
// {0, f, 2f, 3f} and y = f+1, alone in class 1, with MaxLeaf 2.  The six
// class-0 pairs fill a saturated depth-2 leaf; {0, y} and {f, y} a depth-2
// leaf of two, which the pair index answers like the saturated one; and y's
// row {y, 2f}, {y, 3f} a depth-1 leaf of two, which is looked up too (y with
// each later transaction item), not scanned.
func TestDifferentialPairIndexedSmallLeaves(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, fanout := range []int{2, 3, 4, 8} {
		f := itemset.Item(fanout)
		cs := subsets(itemset.New(0, f, f+1, 2*f, 3*f), 2)
		cfg := Config{Fanout: fanout, MaxLeaf: 2}
		for _, filter := range filtersFor(rng, cs) {
			name := fmt.Sprintf("cfg=%+v filter=%s", cfg, filter.name)
			tree := differ(t, name, rng, 2, int(3*f)+1, cs, cfg, filter.fn)
			if tree.pairCol == nil {
				t.Fatalf("%s: no direct pair index", name)
			}
			sizes := leafSizes(tree)
			if d1, d2 := sizes[1], sizes[2]; d2.max <= 2 || d2.min > 2 || d1.max == 0 {
				t.Errorf("%s: depth-1 leaves %+v, depth-2 leaves %+v; want a saturated depth-2 leaf, a small one and a non-empty depth-1 one", name, d1, d2)
			}
		}
	}
}

// TestPairTreeMatchesSplit builds pair-indexed trees from the histogram and
// the same candidates through split, at power-of-two fanouts (hashed by
// mask) up to 64, the widest a cell mask holds, at fanout 3 (by modulo) and
// at the default 32.  The indexed tree must keep no slot arrays (perm, items,
// marks) and have the split-built tree's nodes — so its Leaves, MemoryBytes
// and per-depth leaf sizes.  Under each of filtersFor's filters, a fresh pair
// of trees counts random transactions: every Subset call must visit as many
// leaves on both, and at the end their Stats must be equal, and their counts
// too, but for the candidates a rejecting filter puts outside an indexed
// tree's contract.  At the boundary, where MaxLeaf is the largest histogram
// cell, so the fullest depth-2 leaf holds exactly MaxLeaf, nothing
// overflows: NewFlat must not index the tree, and its shape is split's all
// the same.
func TestPairTreeMatchesSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for _, fanout := range []int{2, 3, 4, 8, 32, 64} {
		nItems := max(24, 5*fanout)
		universe := itemset.New(randomSets(rng, 1, max(16, 3*fanout), nItems)[0]...)
		all := subsets(universe, 2)
		shapes := map[string][]itemset.Itemset{
			"complete":         all,
			"bin-packed share": partition.BinPack(all, 3, 0).Share(2).Itemsets(),
		}
		for _, shape := range []string{"complete", "bin-packed share"} {
			cs := shapes[shape]
			flat := mustFlat(2, cs)
			boundary := leafSizes(mustNew(2, cs, Config{Fanout: fanout, MaxLeaf: 1}))[2].max
			if boundary <= 2 {
				t.Fatalf("%s fanout %d: the largest depth-2 cell holds %d, want more than 2", shape, fanout, boundary)
			}
			for _, maxLeaf := range []int{1, 2, boundary} {
				cfg := Config{Fanout: fanout, MaxLeaf: maxLeaf}
				name := fmt.Sprintf("%s cfg=%+v", shape, cfg)
				indexed := maxLeaf < boundary
				tree, split := mustNewFlat(t, flat, cfg), splitBuilt(t, flat, cfg)
				if (tree.pairCol != nil) != indexed || split.pairCol != nil {
					t.Fatalf("%s: direct pair index %v, split-built %v; want %v and false", name, tree.pairCol != nil, split.pairCol != nil, indexed)
				}
				if indexed && (tree.perm != nil || tree.items != nil || tree.marks != nil) {
					t.Errorf("%s: the indexed tree keeps %d slots, %d items and %d mark words", name, len(tree.perm), len(tree.items), len(tree.marks))
				}
				if fullest := leafSizes(tree)[2].max; !indexed && fullest != maxLeaf {
					t.Errorf("%s: the fullest depth-2 leaf holds %d, want exactly MaxLeaf", name, fullest)
				}
				if !slices.Equal(tree.nodes, split.nodes) {
					t.Errorf("%s: nodes %v, split-built %v", name, tree.nodes, split.nodes)
				}
				if tree.Leaves() != split.Leaves() || tree.MemoryBytes() != split.MemoryBytes() || tree.Len() != split.Len() {
					t.Errorf("%s: %d leaves, %d bytes, %d candidates; split-built %d, %d, %d", name,
						tree.Leaves(), tree.MemoryBytes(), tree.Len(), split.Leaves(), split.MemoryBytes(), split.Len())
				}
				if got, want := leafSizes(tree), leafSizes(split); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: leaf sizes by depth %v, split-built %v", name, got, want)
				}
				for _, f := range filtersFor(rng, cs) {
					name := name + " filter=" + f.name
					tree, split := mustNewFlat(t, flat, cfg), splitBuilt(t, flat, cfg)
					for _, txn := range randomSets(rng, 40, 2+rng.Intn(11), nItems+3) {
						if got, want := tree.Subset(txn, f.fn), split.Subset(txn, f.fn); got != want {
							t.Fatalf("%s: txn %v visited %d leaves, split-built %d", name, txn, got, want)
						}
					}
					if tree.Stats() != split.Stats() {
						t.Errorf("%s: stats %+v, split-built %+v", name, tree.Stats(), split.Stats())
					}
					for ci, got := range tree.Counts() {
						inContract := !indexed || f.fn == nil || f.fn.Test(int(cs[ci][0]))
						if want := split.Counts()[ci]; inContract && got != want {
							t.Errorf("%s: candidate %v counted %d, split-built %d", name, cs[ci], got, want)
						}
					}
				}
			}
		}
	}
}

// TestPairTreeDeclinesWideFanout: a depth-1 node's cells are one word, so a
// saturated complete C2 is pair-indexed at Fanout 64 and built by split, and
// scanned, at 65 and 100 (hashed by modulo).  Either way its nodes are
// split's and it matches the textbook tree under every filter.
func TestPairTreeDeclinesWideFanout(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, fanout := range []int{64, 65, 100} {
		nItems := 4 * fanout
		cs := subsets(itemset.New(randomSets(rng, 1, 3*fanout, nItems)[0]...), 2)
		cfg := Config{Fanout: fanout, MaxLeaf: 2}
		if flat := mustFlat(2, cs); !slices.Equal(mustNewFlat(t, flat, cfg).nodes, splitBuilt(t, flat, cfg).nodes) {
			t.Errorf("cfg=%+v: nodes differ from the split-built tree's", cfg)
		}
		for _, f := range filtersFor(rng, cs) {
			name := fmt.Sprintf("cfg=%+v filter=%s", cfg, f.name)
			tree := differ(t, name, rng, 2, nItems, cs, cfg, f.fn)
			if got, want := tree.pairCol != nil, fanout <= 64; got != want {
				t.Errorf("%s: direct pair index = %v, want %v", name, got, want)
			}
			if leafSizes(tree)[2].max <= cfg.MaxLeaf {
				t.Errorf("%s: no saturated leaf", name)
			}
		}
	}
}

// FuzzPairTreeMatchesReference drives differTxns on a scattered universe's
// complete C2 or one bin-packed share of it, at Fanout 2..64 and MaxLeaf
// 1..4, under no filter, IDD's or a rejecting one.  The seed picks the
// universe, the share and the rejecting filter; data holds the transactions,
// each a length byte (mod 15) and that many little-endian uint16 items, which
// reach past the candidates' range.
func FuzzPairTreeMatchesReference(f *testing.F) {
	f.Add(int64(1), false, uint8(30), uint8(0), uint8(0), []byte{5, 1, 0, 2, 0, 3, 0, 40, 0, 90, 0, 3, 7, 0, 8, 0, 200, 1})
	f.Add(int64(2), true, uint8(62), uint8(1), uint8(1), []byte{9, 0, 0, 64, 0, 65, 0, 128, 0, 129, 0, 130, 0, 192, 0, 255, 0, 44, 1})
	f.Add(int64(3), false, uint8(1), uint8(3), uint8(2), []byte{6, 1, 0, 4, 0, 7, 0, 10, 0, 13, 0, 16, 0})
	f.Fuzz(func(t *testing.T, seed int64, packed bool, fanout, maxLeaf, filter uint8, data []byte) {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{Fanout: 2 + int(fanout)%63, MaxLeaf: 1 + int(maxLeaf)%4}
		nItems := 4 * cfg.Fanout
		cs := subsets(itemset.New(randomSets(rng, 1, 2+rng.Intn(3*cfg.Fanout-1), nItems)[0]...), 2)
		if packed {
			cs = partition.BinPack(cs, 3, 0).Share(rng.Intn(3)).Itemsets()
		}
		f := filtersFor(rng, cs)[filter%3]
		var txns []itemset.Itemset
		for len(data) > 0 && len(txns) < 80 {
			n := int(data[0]) % 15
			data = data[1:]
			var txn []itemset.Item
			for ; n > 0 && len(data) >= 2; n-- {
				txn = append(txn, itemset.Item(int(binary.LittleEndian.Uint16(data))%(nItems+64)))
				data = data[2:]
			}
			txns = append(txns, itemset.New(txn...))
		}
		name := fmt.Sprintf("seed=%d packed=%v cfg=%+v filter=%s", seed, packed, cfg, f.name)
		differTxns(t, name, txns, 2, cs, cfg, f.fn)
	})
}

// mustNewFlat is NewFlat for candidates known to be valid.
func mustNewFlat(t *testing.T, flat itemset.Flat, cfg Config) *Tree {
	t.Helper()
	tree, err := NewFlat(flat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// splitBuilt is the tree split builds over flat, pair-indexable or not.
func splitBuilt(t *testing.T, flat itemset.Flat, cfg Config) *Tree {
	t.Helper()
	tree, numItems, err := newRoot(flat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tree.build(flat.Items, numItems)
	return tree
}

type namedFilter struct {
	name string
	fn   *bitmap.Bitmap
}

// filtersFor returns the root filters the differential tests run on cs:
// none, IDD's, and one rejecting some of the candidates' own first items.
func filtersFor(rng *rand.Rand, cs []itemset.Itemset) []namedFilter {
	return []namedFilter{
		{"none", nil},
		{"first items", firstItemFilter(cs)},
		{"rejecting", rejectingFilter(rng, cs)},
	}
}

// sizeRange is the least and greatest candidate count of a set of non-empty
// leaves (both 0 when there is none).
type sizeRange struct{ min, max int }

// leafSizes walks tree from the root and returns, by depth, the size range of
// its non-empty leaves.
func leafSizes(tree *Tree) map[int]sizeRange {
	out := map[int]sizeRange{}
	var walk func(ni int32, depth int)
	walk = func(ni int32, depth int) {
		n := tree.nodes[ni]
		if n.child != 0 {
			for h := int32(0); h < int32(tree.cfg.Fanout); h++ {
				walk(n.child+h, depth+1)
			}
			return
		}
		size := int(n.end - n.start)
		if size == 0 {
			return
		}
		r, ok := out[depth]
		if !ok || size < r.min {
			r.min = size
		}
		r.max = max(r.max, size)
		out[depth] = r
	}
	walk(0, 0)
	return out
}

// subsets returns every k-subset of the sorted universe, in lexicographic
// order.
func subsets(universe itemset.Itemset, k int) []itemset.Itemset {
	if k == 0 {
		return []itemset.Itemset{{}}
	}
	var out []itemset.Itemset
	for i, it := range universe {
		for _, rest := range subsets(universe[i+1:], k-1) {
			out = append(out, append(itemset.Itemset{it}, rest...))
		}
	}
	return out
}

// sameSet reports whether a and b hold the same matches, in any order, among
// those keep admits.
func sameSet(a, b []int32, keep func(int32) bool) bool {
	drop := func(ci int32) bool { return !keep(ci) }
	a, b = slices.DeleteFunc(slices.Clone(a), drop), slices.DeleteFunc(slices.Clone(b), drop)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

func binomial(n, k int) int {
	c := 1
	for i := 0; i < k; i++ {
		c = c * (n - i) / (i + 1)
	}
	return c
}
