package hashtree

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"parapriori/internal/itemset"
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

func (t *refTree) subset(txn itemset.Itemset, rootFilter func(itemset.Item) bool) int {
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
		if rootFilter != nil && !rootFilter(txn[i]) {
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

// TestDifferentialAgainstReference drives the flat tree and the reference
// tree with the same candidates and transactions and demands the same
// visits, the same matches in the same order, the same counts, the same
// number of leaves and the same operation counters — over k = 1..5, fanout
// 2..32, trees that never split, transactions carrying items beyond the
// largest candidate item, and with a root filter.
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
		var filter func(itemset.Item) bool
		if trial%3 == 0 {
			firsts := map[itemset.Item]bool{}
			for _, c := range cs {
				firsts[c[0]] = rng.Intn(4) > 0
			}
			filter = func(it itemset.Item) bool { return firsts[it] }
		}
		name := fmt.Sprintf("trial %d k=%d cfg=%+v cands=%d filter=%v", trial, k, cfg, nCands, filter != nil)

		tree, ref := MustNew(k, cs, cfg), newRefTree(k, cs, cfg)
		if tree.Leaves() != ref.leaves() {
			t.Fatalf("%s: %d leaves, reference %d", name, tree.Leaves(), ref.leaves())
		}
		var matches []int32
		for i := 0; i < 80; i++ {
			// Items up to 2*nItems+200: beyond the candidates' range and
			// beyond the last word of the mark bitmap.
			txn := make([]itemset.Item, rng.Intn(14))
			for j := range txn {
				txn[j] = itemset.Item(rng.Intn(2*nItems + 200))
				if rng.Intn(3) > 0 {
					txn[j] %= itemset.Item(nItems)
				}
			}
			set := itemset.New(txn...)
			matches = matches[:0]
			var got int
			if i%2 == 0 {
				got = tree.SubsetCollect(set, filter, &matches)
			} else {
				got = tree.Subset(set, filter)
			}
			if want := ref.subset(set, filter); got != want {
				t.Fatalf("%s: txn %v visited %d leaves, reference %d", name, set, got, want)
			}
			if i%2 == 0 && !reflect.DeepEqual(append([]int32{}, matches...), append([]int32{}, ref.matches...)) {
				t.Fatalf("%s: txn %v matched %v, reference %v", name, set, matches, ref.matches)
			}
		}
		if got := tree.Counts(); !reflect.DeepEqual(got, ref.counts) {
			t.Fatalf("%s: counts %v, reference %v", name, got, ref.counts)
		}
		if tree.Stats() != ref.stats {
			t.Fatalf("%s: stats %+v, reference %+v", name, tree.Stats(), ref.stats)
		}
	}
}

func binomial(n, k int) int {
	c := 1
	for i := 0; i < k; i++ {
		c = c * (n - i) / (i + 1)
	}
	return c
}
