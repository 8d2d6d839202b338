package partition

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"parapriori/internal/apriori"
	"parapriori/internal/itemset"
)

// sortedCands builds a lexicographically sorted candidate list with the
// given first-item group sizes: sizes[i] candidates starting with item i.
func sortedCands(sizes []int) []itemset.Itemset {
	var out []itemset.Itemset
	for first, n := range sizes {
		for j := 0; j < n; j++ {
			out = append(out, itemset.New(itemset.Item(first), itemset.Item(1000+j)))
		}
	}
	return out
}

// flat is itemset.FlatOf for test candidates of one size.
func flat(cands []itemset.Itemset) itemset.Flat {
	k := 0
	if len(cands) > 0 {
		k = len(cands[0])
	}
	f, err := itemset.FlatOf(k, cands)
	if err != nil {
		panic(err)
	}
	return f
}

func TestGroupsBasic(t *testing.T) {
	cands := sortedCands([]int{3, 0, 2, 5})
	groups := firstItemGroups(flat(cands), 0)
	if len(groups) != 3 {
		t.Fatalf("got %d groups, want 3", len(groups))
	}
	wantSizes := []int{3, 2, 5}
	wantFirsts := []itemset.Item{0, 2, 3}
	for i, g := range groups {
		if g.Size() != wantSizes[i] || g.First != wantFirsts[i] || g.HasSecond {
			t.Errorf("group %d = %+v", i, g)
		}
	}
}

func TestGroupsSplitBySecondItem(t *testing.T) {
	// 6 candidates starting with item 0 and three distinct second items;
	// threshold 2 forces a second-item split.
	cands := []itemset.Itemset{
		itemset.New(0, 1, 10), itemset.New(0, 1, 11),
		itemset.New(0, 2, 10), itemset.New(0, 2, 11),
		itemset.New(0, 3, 10), itemset.New(0, 3, 11),
	}
	groups := firstItemGroups(flat(cands), 2)
	if len(groups) != 3 {
		t.Fatalf("got %d groups, want 3: %+v", len(groups), groups)
	}
	for i, g := range groups {
		if !g.HasSecond || g.Size() != 2 || g.Second != itemset.Item(i+1) {
			t.Errorf("group %d = %+v", i, g)
		}
	}
}

func TestGroupsCoverAllCandidates(t *testing.T) {
	f := func(rawSizes []uint8, threshold uint8) bool {
		sizes := make([]int, len(rawSizes))
		total := 0
		for i, s := range rawSizes {
			sizes[i] = int(s % 9)
			total += sizes[i]
		}
		cands := sortedCands(sizes)
		groups := firstItemGroups(flat(cands), int(threshold%20))
		covered := 0
		prevEnd := 0
		for _, g := range groups {
			if g.Start != prevEnd {
				return false // gaps or overlaps
			}
			covered += g.Size()
			prevEnd = g.End
		}
		return covered == total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBinPackBalances(t *testing.T) {
	// 100 groups of varied size pack into 8 buckets with low imbalance.
	rng := rand.New(rand.NewSource(1))
	sizes := make([]int, 100)
	for i := range sizes {
		sizes[i] = 1 + rng.Intn(20)
	}
	cands := sortedCands(sizes)
	asg := BinPack(cands, 8, 0)
	if got := asg.Imbalance(); got > 0.05 {
		t.Errorf("imbalance = %v, want <= 0.05", got)
	}
	// Every candidate appears exactly once across processors.
	seen := map[string]int{}
	for p := range asg.Counts {
		for _, c := range asg.Share(p).Itemsets() {
			seen[c.Key()]++
		}
	}
	if len(seen) != len(cands) {
		t.Fatalf("covered %d candidates, want %d", len(seen), len(cands))
	}
	for k, n := range seen {
		if n != 1 {
			t.Errorf("candidate %v assigned %d times", itemset.KeyToItemset(k), n)
		}
	}
}

func TestBinPackGroupIntegrity(t *testing.T) {
	// Without splitting, all candidates sharing a first item land on the
	// same processor — the property IDD's bitmap filtering needs.
	sizes := []int{5, 3, 7, 2, 8, 1}
	cands := sortedCands(sizes)
	asg := BinPack(cands, 3, 1<<30) // threshold huge: no splits
	owner := map[itemset.Item]int{}
	for p := range asg.Counts {
		for _, c := range asg.Share(p).Itemsets() {
			if prev, ok := owner[c[0]]; ok && prev != p {
				t.Fatalf("first item %d split across processors %d and %d", c[0], prev, p)
			}
			owner[c[0]] = p
		}
	}
}

func TestBinPackSkewSplits(t *testing.T) {
	// One first item holds 90% of candidates: without second-item
	// splitting one processor would get almost everything.
	var cands []itemset.Itemset
	for j := 0; j < 90; j++ {
		cands = append(cands, itemset.New(0, itemset.Item(1+j%9), itemset.Item(100+j)))
	}
	for i := 0; i < 10; i++ {
		cands = append(cands, itemset.New(itemset.Item(1+i), itemset.Item(50), itemset.Item(200)))
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].Compare(cands[j]) < 0 })

	unsplit := BinPack(cands, 4, 1<<30)
	split := BinPack(cands, 4, 0) // natural threshold splits the hot item
	if split.Imbalance() >= unsplit.Imbalance() {
		t.Errorf("second-item splitting did not help: %v vs %v", split.Imbalance(), unsplit.Imbalance())
	}
	if split.Imbalance() > 0.3 {
		t.Errorf("imbalance after splitting = %v", split.Imbalance())
	}
}

func TestBinPackDeterministic(t *testing.T) {
	sizes := []int{4, 4, 4, 6, 6, 2, 9}
	cands := sortedCands(sizes)
	a := BinPack(cands, 4, 0)
	b := BinPack(cands, 4, 0)
	for p := range a.Counts {
		if as, bs := a.Share(p), b.Share(p); as.K != bs.K || !slices.Equal(as.Items, bs.Items) {
			t.Fatalf("nondeterministic pack at proc %d", p)
		}
	}
}

func TestBinPackRealCandidates(t *testing.T) {
	// apriori.Gen output is the real input shape: sorted candidates.
	var f1 []itemset.Itemset
	for i := 0; i < 40; i++ {
		f1 = append(f1, itemset.New(itemset.Item(i)))
	}
	c2 := apriori.Gen(f1)
	for p := 1; p <= 16; p *= 2 {
		asg := BinPack(c2, p, 0)
		total := 0
		for _, n := range asg.Counts {
			total += n
		}
		if total != len(c2) {
			t.Fatalf("P=%d: packed %d of %d", p, total, len(c2))
		}
	}
}

// refPerProc is the longest-processing-time packing written out directly,
// candidates and all: groups by decreasing size (ties by first, then second
// item), each appended to the processor holding the fewest candidates (the
// lowest index on a tie).
func refPerProc(cands []itemset.Itemset, groups []Group, p int) [][]itemset.Itemset {
	groups = slices.Clone(groups)
	sort.SliceStable(groups, func(a, b int) bool {
		ga, gb := groups[a], groups[b]
		if ga.Size() != gb.Size() {
			return ga.Size() > gb.Size()
		}
		if ga.First != gb.First {
			return ga.First < gb.First
		}
		return ga.Second < gb.Second
	})
	out := make([][]itemset.Itemset, p)
	for _, g := range groups {
		best := 0
		for i := range out {
			if len(out[i]) < len(out[best]) {
				best = i
			}
		}
		out[best] = append(out[best], cands[g.Start:g.End]...)
	}
	return out
}

// TestShareIsThePacking checks Share against the packing it reads, over
// random group sizes with and without second-item splits: the shares
// together are a permutation of the candidates, share i is its GroupsOf[i]
// runs of the flat items in order, a fresh array of its own, and it equals
// refPerProc's slice element for element.
func TestShareIsThePacking(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		var cands []itemset.Itemset
		for first, firsts := 0, 1+rng.Intn(30); first < firsts; first++ {
			for j, n := 0, rng.Intn(25); j < n; j++ {
				cands = append(cands, itemset.New(itemset.Item(first), itemset.Item(100+j/3), itemset.Item(1000+j)))
			}
		}
		p := 1 + rng.Intn(9)
		threshold := 0 // the natural one, which splits the largest rows
		if trial%2 == 1 {
			threshold = 1 << 30
		}
		c := flat(cands)
		asg := BinPackFlat(c, p, threshold)
		if !reflect.DeepEqual(asg, BinPack(cands, p, threshold)) {
			t.Fatalf("trial %d: BinPack over headers differs from BinPackFlat", trial)
		}
		split := threshold
		if split == 0 {
			split = (len(cands) + p - 1) / p
		}
		ref := refPerProc(cands, firstItemGroups(c, split), p)
		var all []itemset.Itemset
		for i := range asg.Counts {
			share := asg.Share(i)
			var runs []itemset.Item
			for _, g := range asg.GroupsOf[i] {
				runs = append(runs, c.Items[g.Start*c.K:g.End*c.K]...)
			}
			if share.K != c.K || share.Len() != asg.Counts[i] || !slices.Equal(share.Items, runs) {
				t.Fatalf("trial %d: share %d is not its groups' runs", trial, i)
			}
			if share.Len() > 0 && &share.Items[0] == &asg.Share(i).Items[0] {
				t.Fatalf("trial %d: share %d is not a fresh copy", trial, i)
			}
			if !slices.EqualFunc(share.Itemsets(), ref[i], itemset.Itemset.Equal) {
				t.Fatalf("trial %d: share %d differs from the reference packing", trial, i)
			}
			all = append(all, share.Itemsets()...)
		}
		slices.SortFunc(all, itemset.Itemset.Compare)
		if !slices.EqualFunc(all, cands, itemset.Itemset.Equal) {
			t.Fatalf("trial %d: the shares are not a permutation of the %d candidates", trial, len(cands))
		}
	}
}

// TestBinPackAllocsIndependentOfM pins the sized-before-copying assignment:
// with the number of first-item groups held at 100, packing 100 K and 400 K
// flat candidates costs the same number of allocations, and so does each
// share's copy: one array.
func TestBinPackAllocsIndependentOfM(t *testing.T) {
	build := func(perGroup int) itemset.Flat {
		c := itemset.Flat{K: 2, Items: make([]itemset.Item, 0, 2*100*perGroup)}
		for first := 0; first < 100; first++ {
			for j := 0; j < perGroup; j++ {
				c.Items = append(c.Items, itemset.Item(first), itemset.Item(100+j))
			}
		}
		return c
	}
	measure := func(cands itemset.Flat) float64 {
		var asg *Assignment
		allocs := testing.AllocsPerRun(3, func() { asg = BinPackFlat(cands, 8, 0) })
		total := 0
		for p := range asg.Counts {
			var share itemset.Flat
			if a := testing.AllocsPerRun(3, func() { share = asg.Share(p) }); a != 1 {
				t.Fatalf("Share(%d): %v allocations, want 1", p, a)
			}
			total += share.Len()
		}
		if total != cands.Len() {
			t.Fatalf("assignment holds %d of %d candidates", total, cands.Len())
		}
		return allocs
	}
	small, large := measure(build(1000)), measure(build(4000))
	if small != large || small > 48 {
		t.Errorf("BinPack allocations: %v for 100 K candidates, %v for 400 K; want equal and at most 48", small, large)
	}
}

func TestRoundRobin(t *testing.T) {
	cands := sortedCands([]int{10})
	parts := RoundRobin(flat(cands), 3)
	if parts[0].Len() != 4 || parts[1].Len() != 3 || parts[2].Len() != 3 {
		t.Errorf("sizes = %d, %d, %d", parts[0].Len(), parts[1].Len(), parts[2].Len())
	}
	// candidate i goes to processor i mod p
	if !parts[1].At(0).Equal(cands[1]) || !parts[2].At(1).Equal(cands[5]) {
		t.Error("round-robin order broken")
	}
	if got := RoundRobin(flat(cands), 0); len(got) != 1 {
		t.Errorf("p=0 should clamp to 1, got %d parts", len(got))
	}
}

func TestImbalance(t *testing.T) {
	cases := []struct {
		counts []int
		want   float64
	}{
		{nil, 0},
		{[]int{5, 5, 5}, 0},
		{[]int{0, 0}, 0},
		{[]int{2, 0}, 1},      // max 2, mean 1
		{[]int{3, 1, 2}, 0.5}, // max 3, mean 2
	}
	for _, c := range cases {
		if got := Imbalance(c.counts); got != c.want {
			t.Errorf("Imbalance(%v) = %v, want %v", c.counts, got, c.want)
		}
	}
	// Times take the same definition, summed in float64.
	if got := Imbalance([]float64{0.75, 0.25, 0.5}); got != 0.5 {
		t.Errorf("Imbalance(times) = %v, want 0.5", got)
	}
}

func TestBinPackEdgeCases(t *testing.T) {
	if asg := BinPack(nil, 4, 0); asg.Imbalance() != 0 {
		t.Error("empty pack has imbalance")
	}
	asg := BinPack(sortedCands([]int{3}), 0, 0) // p < 1 clamps to 1
	if len(asg.Counts) != 1 || asg.Share(0).Len() != 3 {
		t.Errorf("p=0 pack = %+v", asg.Counts)
	}
	// More processors than groups: some processors stay empty but all
	// candidates are placed.
	asg = BinPack(sortedCands([]int{2, 2}), 8, 1<<30)
	total := 0
	for _, n := range asg.Counts {
		total += n
	}
	if total != 4 {
		t.Errorf("placed %d of 4", total)
	}
}
