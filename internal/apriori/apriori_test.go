package apriori

import (
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"parapriori/internal/hashtree"
	"parapriori/internal/itemset"
)

// paperData is the supermarket database of Table I with items encoded as
// Bread=1, Beer=2, Coke=3, Diaper=4, Milk=5.
func paperData() *itemset.Dataset {
	rows := [][]itemset.Item{
		{1, 3, 5},    // Bread, Coke, Milk
		{2, 1},       // Beer, Bread
		{2, 3, 4, 5}, // Beer, Coke, Diaper, Milk
		{2, 1, 4, 5}, // Beer, Bread, Diaper, Milk
		{3, 4, 5},    // Coke, Diaper, Milk
	}
	txns := make([]itemset.Transaction, len(rows))
	for i, r := range rows {
		txns[i] = itemset.Transaction{ID: int64(i), Items: itemset.New(r...)}
	}
	return itemset.NewDataset(txns)
}

func TestPaperSupportCounts(t *testing.T) {
	// σ(Diaper, Milk) = 3 and σ(Diaper, Milk, Beer) = 2 (Section II).
	res, err := Mine(paperData(), Params{MinSupport: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	supports := res.SupportTable()
	if got, _ := supports.Lookup(itemset.New(4, 5)); got != 3 {
		t.Errorf("σ(Diaper,Milk) = %d, want 3", got)
	}
	if got, _ := supports.Lookup(itemset.New(2, 4, 5)); got != 2 {
		t.Errorf("σ(Diaper,Milk,Beer) = %d, want 2", got)
	}
}

func TestMineMinSupportFilters(t *testing.T) {
	// At 60% support (count >= 3) only the heavy hitters survive.
	res, err := Mine(paperData(), Params{MinSupport: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.All() {
		if f.Count < 3 {
			t.Errorf("itemset %v with count %d survived 60%% support", f.Items, f.Count)
		}
	}
	// {Milk} appears 4 times, {Diaper, Milk} 3 times.
	supports := res.SupportTable()
	if _, ok := supports.Lookup(itemset.New(5)); !ok {
		t.Error("missing {Milk}")
	}
	if _, ok := supports.Lookup(itemset.New(4, 5)); !ok {
		t.Error("missing {Diaper, Milk}")
	}
}

// bruteFrequent enumerates frequent itemsets by exhaustive search.
func bruteFrequent(d *itemset.Dataset, minCount int64) map[string]int64 {
	out := map[string]int64{}
	var items []itemset.Item
	for i := 0; i < d.NumItems; i++ {
		items = append(items, itemset.Item(i))
	}
	n := len(items)
	if n > 16 {
		panic("bruteFrequent: too many items")
	}
	for mask := 1; mask < 1<<n; mask++ {
		var s itemset.Itemset
		for b := 0; b < n; b++ {
			if mask&(1<<b) != 0 {
				s = append(s, items[b])
			}
		}
		var count int64
		for _, txn := range d.Transactions {
			if txn.Items.ContainsAll(s) {
				count++
			}
		}
		if count >= minCount {
			out[s.Key()] = count
		}
	}
	return out
}

func TestMineMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 8; trial++ {
		var txns []itemset.Transaction
		for i := 0; i < 60; i++ {
			items := make([]itemset.Item, 1+rng.Intn(8))
			for j := range items {
				items[j] = itemset.Item(rng.Intn(12))
			}
			txns = append(txns, itemset.Transaction{ID: int64(i), Items: itemset.New(items...)})
		}
		d := itemset.NewDataset(txns)
		minsup := []float64{0.05, 0.1, 0.2}[trial%3]
		res, err := Mine(d, Params{MinSupport: minsup})
		if err != nil {
			t.Fatal(err)
		}
		want := bruteFrequent(d, res.MinCount)
		if got := res.NumFrequent(); got != len(want) {
			t.Fatalf("trial %d: %d frequent itemsets, brute force found %d", trial, got, len(want))
		}
		supports := res.SupportTable()
		for k, c := range want {
			if got, _ := supports.Lookup(itemset.KeyToItemset(k)); got != c {
				t.Errorf("trial %d: %v count %d, want %d", trial, itemset.KeyToItemset(k), got, c)
			}
		}
	}
}

func TestGen(t *testing.T) {
	// F2 = {12, 13, 14, 23, 34}: join gives {123, 124, 134, 234}; prune
	// drops 134 (34 ok, 14 ok, 13 ok — all present, stays), 234 (24
	// missing — dropped), 124 (24 missing — dropped), 123 (23 present,
	// stays).
	prev := []itemset.Itemset{
		itemset.New(1, 2), itemset.New(1, 3), itemset.New(1, 4),
		itemset.New(2, 3), itemset.New(3, 4),
	}
	got := Gen(prev)
	want := []itemset.Itemset{itemset.New(1, 2, 3), itemset.New(1, 3, 4)}
	if len(got) != len(want) {
		t.Fatalf("Gen = %v, want %v", got, want)
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Errorf("Gen[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestGenEmptyAndSingle(t *testing.T) {
	if got := Gen(nil); got != nil {
		t.Errorf("Gen(nil) = %v", got)
	}
	if got := Gen([]itemset.Itemset{itemset.New(1)}); len(got) != 0 {
		t.Errorf("Gen(single) = %v", got)
	}
	// Two 1-itemsets always join (no prefix, prune trivial).
	got := Gen([]itemset.Itemset{itemset.New(1), itemset.New(2)})
	if len(got) != 1 || !got[0].Equal(itemset.New(1, 2)) {
		t.Errorf("Gen = %v", got)
	}
}

func TestGenOutputSorted(t *testing.T) {
	prev := []itemset.Itemset{
		itemset.New(1), itemset.New(2), itemset.New(3), itemset.New(7),
	}
	got := Gen(prev)
	for i := 1; i < len(got); i++ {
		if got[i-1].Compare(got[i]) >= 0 {
			t.Fatalf("Gen output unsorted at %d: %v", i, got)
		}
	}
	if len(got) != 6 {
		t.Errorf("C(4,2) = %d, want 6", len(got))
	}
}

// TestGenMatchesMapReference compares Gen with the textbook formulation —
// join every pair sharing a (k-2)-prefix, keep the join when each of its
// (k-1)-subsets is in a set of prev's keys — on random downward-closed-ish
// inputs, and checks the flat storage's one promise to callers: appending to
// a candidate never reaches into the next one.
func TestGenMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		k1 := 1 + rng.Intn(4)
		seen := map[string]bool{}
		var prev []itemset.Itemset
		for i := 0; i < 10+rng.Intn(150); i++ {
			s := make(itemset.Itemset, 0, k1)
			for _, it := range rng.Perm(k1 + 7)[:k1] {
				s = append(s, itemset.Item(it))
			}
			if s = itemset.New(s...); !seen[s.Key()] {
				seen[s.Key()] = true
				prev = append(prev, s)
			}
		}
		sort.Slice(prev, func(i, j int) bool { return prev[i].Compare(prev[j]) < 0 })

		var want []itemset.Itemset
		for i := range prev {
			for j := i + 1; j < len(prev) && samePrefix(prev[i], prev[j], k1-1); j++ {
				cand := append(prev[i].Clone(), prev[j][k1-1])
				ok := true
				for drop := range cand {
					ok = ok && seen[append(cand[:drop:drop], cand[drop+1:]...).Key()]
				}
				if ok {
					want = append(want, cand)
				}
			}
		}
		got := Gen(prev)
		if len(got) != len(want) {
			t.Fatalf("trial %d: Gen produced %d candidates, reference %d", trial, len(got), len(want))
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("trial %d: Gen[%d] = %v, reference %v", trial, i, got[i], want[i])
			}
		}
		if len(got) > 1 {
			_ = append(got[0], 99)
			if !got[1].Equal(want[1]) {
				t.Fatalf("trial %d: appending to Gen[0] overwrote Gen[1]: %v", trial, got[1])
			}
		}
	}
}

// TestGenFlatEqualsGen holds GenFlat to Gen element for element, with each
// of Gen's headers capacity-clipped, on random levels from empty to 156 sets.
func TestGenFlatEqualsGen(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 40; trial++ {
		k1 := 1 + rng.Intn(4)
		seen := map[string]bool{}
		var prev []itemset.Itemset
		for i := 0; i < trial*4; i++ {
			s := itemset.New(randomItems(rng, k1, k1+6)...)
			if !seen[s.Key()] {
				seen[s.Key()] = true
				prev = append(prev, s)
			}
		}
		sort.Slice(prev, func(i, j int) bool { return prev[i].Compare(prev[j]) < 0 })
		flat, headers := GenFlat(prev), Gen(prev)
		if flat.Len() != len(headers) {
			t.Fatalf("trial %d: GenFlat made %d candidates, Gen %d", trial, flat.Len(), len(headers))
		}
		if len(prev) > 0 && flat.K != k1+1 {
			t.Fatalf("trial %d: GenFlat stride %d, want %d", trial, flat.K, k1+1)
		}
		for i, c := range headers {
			if !flat.At(i).Equal(c) || cap(c) != len(c) {
				t.Fatalf("trial %d: GenFlat[%d] = %v, Gen[%d] = %v (capacity %d)", trial, i, flat.At(i), i, c, cap(c))
			}
		}
		if flat.Len() == joins(prev) && cap(flat.Items) != len(flat.Items) {
			t.Fatalf("trial %d: nothing pruned, yet GenFlat's %d items sit in an array of %d", trial, len(flat.Items), cap(flat.Items))
		}
	}
	if got := GenFlat(nil); got.Len() != 0 || got.Items != nil {
		t.Errorf("GenFlat(nil) = %+v", got)
	}
}

// joins counts the pairs of prev that share all but their last item: the
// candidates apriori_gen makes before pruning.
func joins(prev []itemset.Itemset) int {
	n := 0
	for i, a := range prev {
		for _, b := range prev[i+1:] {
			if slices.Equal(a[:len(a)-1], b[:len(b)-1]) {
				n++
			}
		}
	}
	return n
}

// randomItems draws n distinct items below limit.
func randomItems(rng *rand.Rand, n, limit int) []itemset.Item {
	out := make([]itemset.Item, n)
	for i, it := range rng.Perm(limit)[:n] {
		out[i] = itemset.Item(it)
	}
	return out
}

// TestGenAllocsIndependentOfM pins the flat candidate storage: generating
// 125 K and 500 K pairs, or 117 K triples, costs the same few allocations.
// With nothing pruned GenFlat makes two (the run bounds and the candidates),
// and allocates at most 5 % over the 4·k bytes per candidate its items take.
func TestGenAllocsIndependentOfM(t *testing.T) {
	singles := func(n int) []itemset.Itemset {
		out := make([]itemset.Itemset, n)
		for i := range out {
			out[i] = itemset.Itemset{itemset.Item(i)}
		}
		return out
	}
	cases := []struct {
		name string
		prev []itemset.Itemset
		want int
	}{
		{"C2 of 500 items", singles(500), 500 * 499 / 2},
		{"C2 of 1000 items", singles(1000), 1000 * 999 / 2},
		{"C3 of all pairs of 90 items", Gen(singles(90)), 90 * 89 * 88 / 6},
	}
	for _, c := range cases {
		var got []itemset.Itemset
		allocs := testing.AllocsPerRun(3, func() { got = Gen(c.prev) })
		if len(got) != c.want {
			t.Fatalf("%s: %d candidates, want %d", c.name, len(got), c.want)
		}
		if allocs > 3 {
			t.Errorf("%s: %v allocations for %d candidates, want at most 3", c.name, allocs, len(got))
		}

		var flat itemset.Flat
		if allocs := testing.AllocsPerRun(3, func() { flat = GenFlat(c.prev) }); allocs > 2 {
			t.Errorf("%s: GenFlat made %v allocations, want at most 2", c.name, allocs)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		flat = GenFlat(c.prev)
		runtime.ReadMemStats(&after)
		bound := 4 * float64(flat.K*flat.Len()) * 1.05
		if bytes := after.TotalAlloc - before.TotalAlloc; float64(bytes) > bound {
			t.Errorf("%s: GenFlat allocated %d bytes for %d candidates of %d items, want at most %.0f", c.name, bytes, flat.Len(), flat.K, bound)
		}
	}
}

func TestFirstPass(t *testing.T) {
	d := paperData()
	f1, stats, _ := FirstPassSource(d, 3)
	// Counts: Bread 3, Beer 3, Coke 3, Diaper 3, Milk 4 — all ≥ 3.
	if len(f1) != 5 {
		t.Fatalf("F1 = %v", f1)
	}
	if stats.K != 1 || stats.Frequent != 5 {
		t.Errorf("stats = %+v", stats)
	}
	f1, _, _ = FirstPassSource(d, 4)
	if len(f1) != 1 || !f1[0].Items.Equal(itemset.New(5)) {
		t.Errorf("F1 at minCount 4 = %v", f1)
	}
}

func TestMinCount(t *testing.T) {
	cases := []struct {
		sup  float64
		n    int
		want int64
	}{
		{0.5, 10, 5},
		{0.1, 1000, 100},
		{0.001, 100, 1}, // ceil(0.1) but at least 1
		{0.0001, 10, 1}, // never below 1
		{0.15, 10, 2},   // ceil(1.5)
		{0.101, 10, 2},  // ceil(1.01)
		{0.3, 7, 3},     // ceil(2.1)
	}
	for _, c := range cases {
		if got := (Params{MinSupport: c.sup}).MinCount(c.n); got != c.want {
			t.Errorf("MinCount(%v, %d) = %d, want %d", c.sup, c.n, got, c.want)
		}
	}
}

func TestMaxPasses(t *testing.T) {
	res, err := Mine(paperData(), Params{MinSupport: 0.4, MaxPasses: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Levels) > 2 {
		t.Errorf("MaxPasses=2 produced %d levels", len(res.Levels))
	}
}

// TestEachPassScansOnce checks that every counting pass streams each
// transaction through its engine exactly once, even with leaves small enough
// to force a deep tree: the serial miner has no multi-scan regime.
func TestEachPassScansOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var txns []itemset.Transaction
	for i := 0; i < 300; i++ {
		items := make([]itemset.Item, 3+rng.Intn(8))
		for j := range items {
			items[j] = itemset.Item(rng.Intn(40))
		}
		txns = append(txns, itemset.Transaction{ID: int64(i), Items: itemset.New(items...)})
	}
	d := itemset.NewDataset(txns)
	res, err := Mine(d, Params{MinSupport: 0.02, Tree: hashtree.Config{Fanout: 2, MaxLeaf: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Passes) < 3 {
		t.Fatalf("only %d passes; want at least two counting passes", len(res.Passes))
	}
	for _, ps := range res.Passes[1:] {
		if ps.Tree.Transactions != int64(d.Len()) {
			t.Errorf("pass %d counted %d transactions, want %d", ps.K, ps.Tree.Transactions, d.Len())
		}
	}
	if _, err := Mine(d, Params{MinSupport: 0.02, Tree: hashtree.Config{Fanout: 1}}); err == nil {
		t.Error("Mine accepted a fanout-1 tree")
	}
}

func TestTreeParts(t *testing.T) {
	var tree hashtree.Config
	if got := TreeParts(1000, 2, tree, 0); got != 1 {
		t.Errorf("uncapped TreeParts = %d", got)
	}
	if got := TreeParts(100, 2, tree, 1); got != 100 {
		t.Errorf("tiny cap TreeParts = %d, want 100 (capped at numCands)", got)
	}
	fit := hashtree.EstimateMemoryBytes(1000, 2, tree)
	if got := TreeParts(1000, 2, tree, fit); got != 1 {
		t.Errorf("exact-fit TreeParts = %d", got)
	}
	if got := TreeParts(0, 2, tree, fit); got != 1 {
		t.Errorf("zero candidates TreeParts = %d", got)
	}
}

func TestResultHelpers(t *testing.T) {
	res, err := Mine(paperData(), Params{MinSupport: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumFrequent() != len(res.All()) {
		t.Errorf("NumFrequent %d != len(All) %d", res.NumFrequent(), len(res.All()))
	}
	// The support table finds every frequent itemset, and nothing else.
	supports := res.SupportTable()
	for _, f := range res.All() {
		if got, ok := supports.Lookup(f.Items); !ok || got != f.Count {
			t.Errorf("SupportTable.Lookup(%v) = %d, %v; want %d", f.Items, got, ok, f.Count)
		}
	}
	for _, miss := range []itemset.Itemset{nil, itemset.New(6), itemset.New(1, 4), itemset.New(1, 2, 3, 4, 5)} {
		if got, ok := supports.Lookup(miss); ok {
			t.Errorf("SupportTable.Lookup(%v) = %d, found", miss, got)
		}
	}
	// Levels are sorted lexicographically.
	for _, level := range res.Levels {
		for i := 1; i < len(level); i++ {
			if level[i-1].Items.Compare(level[i].Items) >= 0 {
				t.Errorf("level unsorted: %v before %v", level[i-1].Items, level[i].Items)
			}
		}
	}
}

// Property: the Apriori closure — every subset of a frequent itemset is
// frequent with at least the superset's count.
func TestDownwardClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var txns []itemset.Transaction
	for i := 0; i < 200; i++ {
		items := make([]itemset.Item, 2+rng.Intn(6))
		for j := range items {
			items[j] = itemset.Item(rng.Intn(25))
		}
		txns = append(txns, itemset.Transaction{ID: int64(i), Items: itemset.New(items...)})
	}
	d := itemset.NewDataset(txns)
	res, err := Mine(d, Params{MinSupport: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	supports := res.SupportTable()
	for _, f := range res.All() {
		for i := range f.Items {
			sub := append(f.Items[:i:i], f.Items[i+1:]...)
			if len(sub) == 0 {
				continue
			}
			c, ok := supports.Lookup(sub)
			if !ok {
				t.Fatalf("subset %v of frequent %v is not frequent", sub, f.Items)
			}
			if c < f.Count {
				t.Errorf("support of %v (%d) below superset %v (%d)", sub, c, f.Items, f.Count)
			}
		}
	}
}

// BenchmarkGenFlatPass2 is apriori_gen on the mine-wide workload's second
// pass: the complete C2 of 713 frequent items, 253 828 pairs.
func BenchmarkGenFlatPass2(b *testing.B) {
	f1 := make([]itemset.Itemset, 713)
	for i := range f1 {
		f1[i] = itemset.Itemset{itemset.Item(i)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c2 := GenFlat(f1); c2.Len() != 713*712/2 {
			b.Fatalf("%d candidates", c2.Len())
		}
	}
}
