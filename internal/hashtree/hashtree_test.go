package hashtree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"parapriori/internal/bitmap"
	"parapriori/internal/datagen"
	"parapriori/internal/itemset"
	"parapriori/internal/partition"
)

// newTree is NewFlat over candidate itemsets held as headers, all of which
// must have exactly k items.
func newTree(k int, cands []itemset.Itemset, cfg Config) (*Tree, error) {
	flat, err := itemset.FlatOf(k, cands)
	if err != nil {
		return nil, err
	}
	return NewFlat(flat, cfg)
}

// mustNew is newTree for statically correct inputs.
func mustNew(k int, cands []itemset.Itemset, cfg Config) *Tree {
	t, err := newTree(k, cands, cfg)
	if err != nil {
		panic(err)
	}
	return t
}

func cands(sets ...[]itemset.Item) []itemset.Itemset {
	out := make([]itemset.Itemset, len(sets))
	for i, s := range sets {
		out[i] = itemset.New(s...)
	}
	return out
}

// bruteCount returns the subset counts by direct containment testing.
func bruteCount(k int, cs []itemset.Itemset, txns []itemset.Itemset) []int64 {
	out := make([]int64, len(cs))
	for i, c := range cs {
		for _, t := range txns {
			if t.ContainsAll(c) {
				out[i]++
			}
		}
	}
	return out
}

func TestPaperExample(t *testing.T) {
	// The candidate hash tree of Figure 2: 15 candidates of size 3, fanout
	// 3 (hash = item mod 3), and the transaction {1 2 3 5 6}.
	cs := cands(
		[]itemset.Item{1, 4, 5}, []itemset.Item{1, 2, 4}, []itemset.Item{4, 5, 7},
		[]itemset.Item{1, 2, 5}, []itemset.Item{4, 5, 8}, []itemset.Item{1, 5, 9},
		[]itemset.Item{1, 3, 6}, []itemset.Item{2, 3, 4}, []itemset.Item{5, 6, 7},
		[]itemset.Item{3, 4, 5}, []itemset.Item{3, 5, 6}, []itemset.Item{3, 5, 7},
		[]itemset.Item{6, 8, 9}, []itemset.Item{3, 6, 7}, []itemset.Item{3, 6, 8},
	)
	tree, err := newTree(3, cs, Config{Fanout: 3, MaxLeaf: 3})
	if err != nil {
		t.Fatal(err)
	}
	txn := itemset.New(1, 2, 3, 5, 6)
	tree.Subset(txn, nil)
	// The candidates contained in {1 2 3 5 6}: {1 2 5}, {3 5 6}, {1 3 6}.
	want := map[string]int64{
		itemset.New(1, 2, 5).Key(): 1,
		itemset.New(3, 5, 6).Key(): 1,
		itemset.New(1, 3, 6).Key(): 1,
	}
	for i, got := range tree.Counts() {
		if got != want[cs[i].Key()] {
			t.Errorf("candidate %v count = %d, want %d", cs[i], got, want[cs[i].Key()])
		}
	}
}

func TestMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		k := 2 + rng.Intn(3)
		nItems := 10 + rng.Intn(40)
		// Random candidate set.
		seen := map[string]bool{}
		var cs []itemset.Itemset
		for len(cs) < 5+rng.Intn(60) {
			items := make([]itemset.Item, k+2)
			for i := range items {
				items[i] = itemset.Item(rng.Intn(nItems))
			}
			s := itemset.New(items...)
			if len(s) < k {
				continue
			}
			s = s[:k]
			if seen[s.Key()] {
				continue
			}
			seen[s.Key()] = true
			cs = append(cs, s)
		}
		var txns []itemset.Itemset
		for i := 0; i < 50; i++ {
			items := make([]itemset.Item, 1+rng.Intn(12))
			for j := range items {
				items[j] = itemset.Item(rng.Intn(nItems))
			}
			txns = append(txns, itemset.New(items...))
		}
		cfg := Config{Fanout: 2 + rng.Intn(8), MaxLeaf: 1 + rng.Intn(6)}
		tree, err := newTree(k, cs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, txn := range txns {
			tree.Subset(txn, nil)
		}
		brute := bruteCount(k, cs, txns)
		for i, got := range tree.Counts() {
			if got != brute[i] {
				t.Fatalf("trial %d cfg %+v: candidate %v count = %d, brute = %d",
					trial, cfg, cs[i], got, brute[i])
			}
		}
	}
}

func TestRootFilterRestrictsStartingItems(t *testing.T) {
	cs := cands(
		[]itemset.Item{1, 2}, []itemset.Item{2, 3}, []itemset.Item{3, 4},
	)
	tree := mustNew(2, cs, Config{Fanout: 4, MaxLeaf: 1})
	// Only candidates *starting* with item 2 should be countable when the
	// filter admits only 2... but note the filter is an optimization for
	// trees that only contain matching candidates; here {1 2} is still in
	// the tree and may be found via the start item 2.  Build the realistic
	// setup: the tree contains only candidates starting with 2.
	cs = cands([]itemset.Item{2, 3}, []itemset.Item{2, 5})
	tree = mustNew(2, cs, Config{Fanout: 4, MaxLeaf: 1})
	filter := bitmap.New(6)
	filter.Set(2)
	tree.Subset(itemset.New(1, 2, 3, 5), filter)
	if got := tree.Counts(); got[0] != 1 || got[1] != 1 {
		t.Errorf("counts = %v; want 1, 1", got)
	}
	// A transaction without item 2 does no tree work at all.
	before := tree.Stats().Traversals
	tree.Subset(itemset.New(1, 3, 5), filter)
	if got := tree.Stats().Traversals; got != before {
		t.Errorf("filtered transaction still traversed: %d -> %d", before, got)
	}
}

func TestFilterPreservesCounts(t *testing.T) {
	// Filtering by the candidates' own first items never changes counts.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		var cs []itemset.Itemset
		seen := map[string]bool{}
		for len(cs) < 40 {
			s := itemset.New(itemset.Item(rng.Intn(20)), itemset.Item(rng.Intn(20)), itemset.Item(rng.Intn(20)))
			if len(s) != 3 || seen[s.Key()] {
				continue
			}
			seen[s.Key()] = true
			cs = append(cs, s)
		}
		filter := firstItemFilter(cs)

		a := mustNew(3, cs, Config{Fanout: 4, MaxLeaf: 2})
		b := mustNew(3, cs, Config{Fanout: 4, MaxLeaf: 2})
		for i := 0; i < 60; i++ {
			items := make([]itemset.Item, 1+rng.Intn(10))
			for j := range items {
				items[j] = itemset.Item(rng.Intn(20))
			}
			txn := itemset.New(items...)
			a.Subset(txn, nil)
			b.Subset(txn, filter)
		}
		ca, cb := a.Counts(), b.Counts()
		for i := range cs {
			if ca[i] != cb[i] {
				t.Fatalf("filter changed count of %v: %d vs %d", cs[i], ca[i], cb[i])
			}
		}
		if b.Stats().Traversals > a.Stats().Traversals {
			t.Errorf("filter increased traversals: %d > %d", b.Stats().Traversals, a.Stats().Traversals)
		}
	}
}

func TestRejectsBadCandidates(t *testing.T) {
	if _, err := newTree(3, cands([]itemset.Item{1, 2}), Config{}); err == nil {
		t.Error("wrong-size candidate accepted")
	}
	if _, err := newTree(3, []itemset.Itemset{{3, 2, 1}}, Config{}); err == nil {
		t.Error("unsorted candidate accepted")
	}
	if _, err := newTree(2, []itemset.Itemset{{-1, 2}}, Config{}); err == nil {
		t.Error("negative item accepted")
	}
}

func TestConfigValidate(t *testing.T) {
	// Zero and negative fields select the defaults; a fanout of 1 never
	// divides a leaf and would divide the memory estimates by zero.
	for _, c := range []Config{{}, {Fanout: -3, MaxLeaf: -1}, {Fanout: 2}, {Fanout: 32, MaxLeaf: 1}} {
		if err := c.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", c, err)
		}
	}
	if err := (Config{Fanout: 1, MaxLeaf: 16}).Validate(); err == nil {
		t.Error("fanout 1 accepted")
	}
}

func TestLeafSplitting(t *testing.T) {
	// 20 candidates of size 2 sharing no structure, MaxLeaf 2: the tree
	// must split and leaves stay small where depth allows.
	var cs []itemset.Itemset
	for i := 0; i < 20; i++ {
		cs = append(cs, itemset.New(itemset.Item(i), itemset.Item(i+30)))
	}
	tree := mustNew(2, cs, Config{Fanout: 4, MaxLeaf: 2})
	if tree.Leaves() <= 1 {
		t.Errorf("tree did not split: %d leaves", tree.Leaves())
	}
	if tree.Len() != 20 {
		t.Errorf("Len = %d", tree.Len())
	}
}

func TestDeepSplitTerminatesOnIdenticalHashPath(t *testing.T) {
	// Candidates sharing every hash value force the split loop to stop at
	// depth k rather than recursing forever.
	cs := cands(
		[]itemset.Item{0, 4}, []itemset.Item{0, 8}, []itemset.Item{4, 8},
		[]itemset.Item{0, 12}, []itemset.Item{4, 12}, []itemset.Item{8, 12},
	)
	tree := mustNew(2, cs, Config{Fanout: 4, MaxLeaf: 1}) // all items ≡ 0 mod 4
	txn := itemset.New(0, 4, 8, 12)
	tree.Subset(txn, nil)
	for i, got := range tree.Counts() {
		if got != 1 {
			t.Errorf("candidate %v count = %d, want 1", cs[i], got)
		}
	}
}

func TestCountsRoundTrip(t *testing.T) {
	// Counts come back in the order New received the candidates, however
	// the tree rearranged them: MaxLeaf 1 puts every candidate in its own
	// leaf, and the hash order (3, 1, 2 mod 4) is not the given order.
	cs := cands([]itemset.Item{3, 5}, []itemset.Item{1, 2}, []itemset.Item{2, 3})
	tree := mustNew(2, cs, Config{Fanout: 4, MaxLeaf: 1})
	tree.Subset(itemset.New(1, 2, 3), nil)
	tree.Subset(itemset.New(2, 3), nil)
	if got := tree.Counts(); got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("counts = %v, want [0 1 2]", got)
	}
}

func TestLeafVisitMemoization(t *testing.T) {
	// Two candidates in one leaf reachable via two different starting
	// items: the leaf must be checked once per transaction, not twice.
	cs := cands([]itemset.Item{1, 3}, []itemset.Item{5, 7})
	tree := mustNew(2, cs, Config{Fanout: 2, MaxLeaf: 10}) // all in one leaf? fanout 2 splits...
	txn := itemset.New(1, 3, 5, 7)
	visited := tree.Subset(txn, nil)
	stats := tree.Stats()
	if int64(visited) != stats.LeafVisits {
		t.Errorf("visited %d != stats %d", visited, stats.LeafVisits)
	}
	if got := tree.Counts(); got[0] != 1 || got[1] != 1 {
		t.Errorf("counts = %v", got)
	}
}

func TestStatsAccumulate(t *testing.T) {
	cs := cands([]itemset.Item{1, 2})
	tree := mustNew(2, cs, Config{})
	if tree.Stats().Inserts != 1 {
		t.Errorf("Inserts = %d", tree.Stats().Inserts)
	}
	tree.Subset(itemset.New(1, 2), nil)
	tree.Subset(itemset.New(1, 2), nil)
	s := tree.Stats()
	if s.Transactions != 2 {
		t.Errorf("Transactions = %d", s.Transactions)
	}
	if s.LeafChecks < 2 {
		t.Errorf("LeafChecks = %d", s.LeafChecks)
	}
}

func TestAvgLeafVisits(t *testing.T) {
	s := Stats{LeafVisits: 10, Transactions: 4}
	if got := s.AvgLeafVisits(); got != 2.5 {
		t.Errorf("AvgLeafVisits = %v", got)
	}
	if got := (Stats{}).AvgLeafVisits(); got != 0 {
		t.Errorf("empty AvgLeafVisits = %v", got)
	}
}

func TestShortTransactionIsFree(t *testing.T) {
	cs := cands([]itemset.Item{1, 2, 3})
	tree := mustNew(3, cs, Config{})
	if v := tree.Subset(itemset.New(1, 2), nil); v != 0 {
		t.Errorf("short transaction visited %d leaves", v)
	}
	if got := tree.Counts()[0]; got != 0 {
		t.Errorf("count = %d", got)
	}
}

func TestMemoryEstimates(t *testing.T) {
	var cs []itemset.Itemset
	for i := 0; i < 500; i++ {
		cs = append(cs, itemset.New(itemset.Item(i), itemset.Item(i+600)))
	}
	tree := mustNew(2, cs, Config{})
	if tree.MemoryBytes() <= 0 {
		t.Error("MemoryBytes not positive")
	}
	if EstimateMemoryBytes(500, 2, Config{}) <= 0 {
		t.Error("EstimateMemoryBytes not positive")
	}
	// The estimate should be within an order of magnitude of the real tree.
	est := EstimateMemoryBytes(500, 2, Config{})
	real := tree.MemoryBytes()
	if est > real*10 || real > est*10 {
		t.Errorf("estimate %d vs actual %d differ too much", est, real)
	}
}

// TestMemoryBytesPinned pins MemoryBytes — 32+4k bytes a candidate, 8·Fanout
// an internal node, 48 a leaf, with (Leaves-1)/(Fanout-1) internal nodes —
// on two small trees worked by hand.  The fanouts are 3 and 2, where an
// internal-node count off by two leaves shows.
func TestMemoryBytesPinned(t *testing.T) {
	// Fanout 3, MaxLeaf 2: the root splits its three candidates by first
	// item mod 3 into {01, 02}, {12} and an empty leaf: 1 internal node,
	// 3 leaves, scanned (no pair index).  3·40 + 1·24 + 3·48 = 288.
	split := mustNew(2, []itemset.Itemset{itemset.New(0, 1), itemset.New(0, 2), itemset.New(1, 2)}, Config{Fanout: 3, MaxLeaf: 2})
	if split.pairCol != nil || split.Leaves() != 3 {
		t.Fatalf("split tree: pair-indexed %v, %d leaves; want scanned, 3 leaves", split.pairCol != nil, split.Leaves())
	}
	if got := split.MemoryBytes(); got != 288 {
		t.Errorf("split tree: MemoryBytes = %d, want 288", got)
	}
	// Fanout 2, MaxLeaf 1: the complete C2 of {0, 1, 2, 3}; both first-item
	// classes overflow, and the even one's cell of odd second items holds
	// {01, 03, 23}: pair-indexed, 3 internal nodes, 4 leaves.
	// 6·40 + 3·16 + 4·48 = 480.
	pairs := mustNew(2, subsets(itemset.New(0, 1, 2, 3), 2), Config{Fanout: 2, MaxLeaf: 1})
	if pairs.pairCol == nil || pairs.Leaves() != 4 {
		t.Fatalf("complete C2: pair-indexed %v, %d leaves; want indexed, 4 leaves", pairs.pairCol != nil, pairs.Leaves())
	}
	if got := pairs.MemoryBytes(); got != 480 {
		t.Errorf("complete C2: MemoryBytes = %d, want 480", got)
	}
}

// Property: for random candidate sets and transactions, hash-tree counting
// agrees with brute force regardless of tree shape.
func TestQuickCountEquivalence(t *testing.T) {
	type input struct {
		CandSeeds []uint16
		TxnSeeds  []uint16
		Fanout    uint8
		MaxLeaf   uint8
	}
	f := func(in input) bool {
		k := 2
		seen := map[string]bool{}
		var cs []itemset.Itemset
		for _, s := range in.CandSeeds {
			a, b := itemset.Item(s%13), itemset.Item((s/13)%13)
			set := itemset.New(a, b)
			if len(set) != k || seen[set.Key()] {
				continue
			}
			seen[set.Key()] = true
			cs = append(cs, set)
		}
		var txns []itemset.Itemset
		for _, s := range in.TxnSeeds {
			txns = append(txns, itemset.New(
				itemset.Item(s%13), itemset.Item((s/13)%13), itemset.Item((s/169)%13)))
		}
		cfg := Config{Fanout: int(in.Fanout%7) + 2, MaxLeaf: int(in.MaxLeaf%5) + 1}
		tree, err := newTree(k, cs, cfg)
		if err != nil {
			return false
		}
		for _, txn := range txns {
			tree.Subset(txn, nil)
		}
		brute := bruteCount(k, cs, txns)
		for i, got := range tree.Counts() {
			if got != brute[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSubsetAllocFree: a Subset call allocates nothing once the per-tree
// scratch has grown to the longest transaction, whether its depth-k leaves
// are answered by the pair index (k = 2) or scanned (k = 3).
func TestSubsetAllocFree(t *testing.T) {
	universe := make(itemset.Itemset, 16)
	for i := range universe {
		universe[i] = itemset.Item(3 * i)
	}
	rng := rand.New(rand.NewSource(5))
	txns := randomSets(rng, 30, 9, 50)
	for _, k := range []int{2, 3} {
		tree := mustNew(k, subsets(universe, k), Config{Fanout: 2, MaxLeaf: 2})
		if indexed := tree.pairCol != nil; indexed != (k == 2) {
			t.Fatalf("k=%d: direct pair index = %v", k, indexed)
		}
		allocs := testing.AllocsPerRun(10, func() {
			for _, txn := range txns {
				tree.Subset(txn, nil)
			}
		})
		if allocs != 0 {
			t.Errorf("k=%d: %v allocations per %d Subset calls, want 0", k, allocs, len(txns))
		}
		if tree.Stats().LeafChecks == 0 {
			t.Errorf("k=%d: no leaf was charged", k)
		}
	}
}

// BenchmarkSubsetPass2 is the shape of the mine-wide workload's second pass:
// the complete C2 over the 713 most frequent of 1 000 items, bin-packed
// eight ways by first item (whole rows per part, as HD's 8×1 grid places
// them), one tree per part with its first-item filter, T15.I6 transactions.
// Each part's tree has about 1 000 depth-2 leaves of ~30 candidates
// (MaxLeaf 16), and 143–248 of them hold 16 or fewer; every tree is
// pair-indexed, so each call is subsetPairs' one loop: a transaction of ~15
// items has ~1.5 root items that pass the filter, and each looks itself up
// with every later item, with no walk and no leaf read but the charged
// leaves' sizes.
func BenchmarkSubsetPass2(b *testing.B) {
	txns, parts, filters := pass2Shape()
	var trees []*Tree
	for _, part := range parts {
		tree, err := NewFlat(part, Config{})
		if err != nil {
			b.Fatal(err)
		}
		if tree.pairCol == nil {
			b.Fatal("a part's tree is not pair-indexed")
		}
		trees = append(trees, tree)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r, tree := range trees {
			for _, t := range txns {
				tree.Subset(t.Items, filters[r])
			}
		}
	}
	b.StopTimer()
	var s Stats
	for _, tree := range trees {
		s.Add(tree.Stats())
	}
	b.ReportMetric(float64(s.LeafChecks)/float64(s.Transactions), "checks/txn")
}

// BenchmarkNewFlatPass2 builds the eight trees of BenchmarkSubsetPass2, one
// per bin-packed part of the same C2.
func BenchmarkNewFlatPass2(b *testing.B) {
	_, parts, _ := pass2Shape()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, part := range parts {
			if _, err := NewFlat(part, Config{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// pass2Shape returns the transactions and the eight bin-packed parts of C2,
// each with its first-item filter, that the Pass2 benchmarks run on.
func pass2Shape() ([]itemset.Transaction, []itemset.Flat, []*bitmap.Bitmap) {
	p := datagen.Defaults()
	p.NumTransactions = 2000
	data, err := datagen.Generate(p)
	if err != nil {
		panic(err)
	}
	freq := make([]int, p.NumItems)
	for _, t := range data.Transactions {
		for _, it := range t.Items {
			freq[it]++
		}
	}
	byFreq := make(itemset.Itemset, p.NumItems)
	for i := range byFreq {
		byFreq[i] = itemset.Item(i)
	}
	sort.SliceStable(byFreq, func(i, j int) bool { return freq[byFreq[i]] > freq[byFreq[j]] })
	c2 := subsets(itemset.New(byFreq[:713]...), 2)

	asg := partition.BinPack(c2, 8, 0)
	parts := make([]itemset.Flat, len(asg.Counts))
	filters := make([]*bitmap.Bitmap, len(asg.Counts))
	for i := range parts {
		parts[i] = asg.Share(i)
		filters[i] = bitmap.New(p.NumItems)
		for j := 0; j < parts[i].Len(); j++ {
			filters[i].Set(int(parts[i].At(j)[0]))
		}
	}
	return data.Transactions, parts, filters
}
