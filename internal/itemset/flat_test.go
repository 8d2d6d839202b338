package itemset

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

func TestFlatAtIsCapacityClipped(t *testing.T) {
	f := Flat{K: 2, Items: []Item{1, 2, 1, 3, 2, 3}}
	if f.Len() != 3 {
		t.Fatalf("Len = %d, want 3", f.Len())
	}
	first := f.At(0)
	if !first.Equal(New(1, 2)) || cap(first) != 2 {
		t.Fatalf("At(0) = %v with capacity %d, want {1 2} with capacity 2", first, cap(first))
	}
	_ = append(first, 99)
	if !f.At(1).Equal(New(1, 3)) {
		t.Fatalf("appending to At(0) overwrote At(1): %v", f.At(1))
	}
	if got := (Flat{}).Len(); got != 0 {
		t.Fatalf("zero Flat has Len %d", got)
	}
}

func TestFlatSlice(t *testing.T) {
	f := Flat{K: 3, Items: []Item{1, 2, 3, 1, 2, 4, 1, 3, 4, 2, 3, 4}}
	mid := f.Slice(1, 3)
	if mid.K != 3 || mid.Len() != 2 || !mid.At(0).Equal(New(1, 2, 4)) || !mid.At(1).Equal(New(1, 3, 4)) {
		t.Fatalf("Slice(1, 3) = %+v", mid)
	}
	if &mid.Items[0] != &f.Items[3] {
		t.Fatal("Slice copied the items")
	}
	_ = append(mid.Items, 7, 7, 7)
	if !f.At(3).Equal(New(2, 3, 4)) {
		t.Fatalf("appending to Slice(1, 3) overwrote itemset 3: %v", f.At(3))
	}
	if empty := f.Slice(2, 2); empty.Len() != 0 {
		t.Fatalf("Slice(2, 2) has Len %d", empty.Len())
	}
}

// TestFlatRoundTrip copies headers into a Flat and back: the same itemsets
// in the same order, each header a view into the one array.
func TestFlatRoundTrip(t *testing.T) {
	sets := []Itemset{New(4, 9), New(1, 7), New(2, 3), New(1, 7)}
	f, err := FlatOf(2, sets)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Items, []Item{4, 9, 1, 7, 2, 3, 1, 7}) {
		t.Fatalf("FlatOf items = %v", f.Items)
	}
	back := f.Itemsets()
	if !reflect.DeepEqual(back, sets) {
		t.Fatalf("Itemsets = %v, want %v", back, sets)
	}
	for i, s := range back {
		if &s[0] != &f.Items[2*i] || cap(s) != 2 {
			t.Fatalf("header %d is not a clipped view into the flat items", i)
		}
	}
	if empty, err := FlatOf(3, nil); err != nil || empty.K != 3 || empty.Len() != 0 || len(empty.Itemsets()) != 0 {
		t.Fatalf("FlatOf(3, nil) = %+v, %v", empty, err)
	}
	if _, err := FlatOf(2, []Itemset{New(1, 2), New(1, 2, 3)}); err == nil {
		t.Fatal("FlatOf accepted an itemset of the wrong size")
	}
	if _, err := FlatOf(0, []Itemset{{}}); err == nil {
		t.Fatal("FlatOf accepted empty itemsets, which a Flat cannot count")
	}
}

// refPairIndex is PairIndex by definition: f's pairs, cut into runs of one
// first item, must be whole first-item rows over U (the sorted items of f),
// one run per first item; pair i of run a is then at base[a]+rank[b].
func refPairIndex(f Flat, numItems int) (rank, base []int32, ok bool) {
	if f.K != 2 || f.Len() == 0 {
		return nil, nil, false
	}
	var u []Item
	seen := map[Item]bool{}
	for _, it := range f.Items {
		if !seen[it] {
			seen[it] = true
			u = append(u, it)
		}
	}
	slices.Sort(u)
	rank, base = make([]int32, numItems), make([]int32, numItems)
	for it := range rank {
		rank[it], base[it] = NoPair, NoPair
	}
	for r, it := range u {
		rank[it] = int32(r)
	}
	for i := 0; i < f.Len(); {
		a := f.At(i)[0]
		if base[a] != NoPair {
			return nil, nil, false // a second run of a
		}
		var run []Itemset
		for j := i; j < f.Len() && f.At(j)[0] == a; j++ {
			run = append(run, f.At(j))
		}
		var row []Itemset
		for _, b := range u {
			if b > a {
				row = append(row, Itemset{a, b})
			}
		}
		if !reflect.DeepEqual(run, row) {
			return nil, nil, false
		}
		base[a] = int32(i) - rank[a] - 1
		i += len(run)
	}
	return rank, base, true
}

// pairShape builds one k = 2 candidate list over a random set F of items
// below n, C₂(F) reshaped as a miner or a malformed input would hand it
// over.  The vocabulary is n+1 items, so item n occurs in no row of C₂(F).
func pairShape(rng *rand.Rand, shape string, n int) Flat {
	var f1 []Item
	for it := 0; it < n; it++ {
		if rng.Intn(3) > 0 {
			f1 = append(f1, Item(it))
		}
	}
	var rows [][]Item // rows[r]: row r's pairs, flat
	for i, a := range f1 {
		var row []Item
		for _, b := range f1[i+1:] {
			row = append(row, a, b)
		}
		if row != nil {
			rows = append(rows, row)
		}
	}
	flat := func(rows [][]Item) Flat { return Flat{K: 2, Items: slices.Concat(rows...)} }
	complete := flat(rows)
	m := complete.Len()
	switch shape {
	case "complete":
		return complete
	case "binpacked":
		var share [][]Item
		for _, r := range rng.Perm(len(rows)) {
			if rng.Intn(2) == 0 {
				share = append(share, rows[r])
			}
		}
		return flat(share)
	case "row-permuted":
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		return flat(rows)
	case "cut-mid-row":
		if m == 0 {
			return complete
		}
		lo := rng.Intn(m)
		return complete.Slice(lo, lo+1+rng.Intn(m-lo))
	case "holed":
		if m == 0 {
			return complete
		}
		hole := rng.Intn(m)
		return Flat{K: 2, Items: slices.Concat(complete.Items[:2*hole], complete.Items[2*hole+2:])}
	case "repeated":
		if m == 0 {
			return complete
		}
		i, at := rng.Intn(m), rng.Intn(m+1)
		return Flat{K: 2, Items: slices.Concat(complete.Items[:2*at], complete.At(i), complete.Items[2*at:])}
	case "ghost":
		if len(f1) == 0 {
			return complete
		}
		at := rng.Intn(m + 1)
		ghost := []Item{f1[rng.Intn(len(f1))], Item(n)}
		return Flat{K: 2, Items: slices.Concat(complete.Items[:2*at], ghost, complete.Items[2*at:])}
	case "empty":
		return Flat{K: 2}
	}
	panic("unknown shape " + shape)
}

// TestPairIndexMatchesBruteForce diffs PairIndex against refPairIndex over
// complete C₂s, whole-row shares, permuted rows, runs cut mid-row, holed,
// repeated and ghost-item sets and the empty set, at several item counts:
// the same verdict, the same tables, and every pair found where the index
// says it is.
func TestPairIndexMatchesBruteForce(t *testing.T) {
	shapes := []string{"complete", "binpacked", "row-permuted", "cut-mid-row", "holed", "repeated", "ghost", "empty"}
	for _, shape := range shapes {
		for _, n := range []int{2, 3, 4, 7, 16, 33, 64, 100, 257} {
			for seed := int64(1); seed <= 8; seed++ {
				t.Run(fmt.Sprintf("%s/items=%d/seed=%d", shape, n, seed), func(t *testing.T) {
					f := pairShape(rand.New(rand.NewSource(seed*1000+int64(n))), shape, n)
					rank, base, ok := f.PairIndex(n + 1)
					wantRank, wantBase, wantOK := refPairIndex(f, n+1)
					if ok != wantOK || !slices.Equal(rank, wantRank) || !slices.Equal(base, wantBase) {
						t.Fatalf("PairIndex(%v) = %v, rank %v, base %v; want %v, %v, %v", f.Items, ok, rank, base, wantOK, wantRank, wantBase)
					}
					if (shape == "complete" || shape == "row-permuted") && f.Len() > 0 && !ok {
						t.Fatalf("whole rows %v not recognised", f.Items)
					}
					for i := 0; ok && i < f.Len(); i++ {
						if c := f.At(i); base[c[0]]+rank[c[1]] != int32(i) {
							t.Fatalf("pair %v is pair %d, the index says %d", c, i, base[c[0]]+rank[c[1]])
						}
					}
				})
			}
		}
	}
}

// TestPairIndexRefusesOtherSizes checks that only pairs are indexed.
func TestPairIndexRefusesOtherSizes(t *testing.T) {
	for _, f := range []Flat{{K: 1, Items: []Item{0, 1, 2}}, {K: 3, Items: []Item{0, 1, 2}}, {}} {
		if _, _, ok := f.PairIndex(3); ok {
			t.Errorf("PairIndex of %+v succeeded", f)
		}
	}
}

// TestFlatCheck pins Check's span and its refusals, on pairs and on other
// sizes.
func TestFlatCheck(t *testing.T) {
	cases := []struct {
		f    Flat
		span int
		ok   bool
	}{
		{Flat{}, 0, true},
		{Flat{K: 2}, 0, true},
		{Flat{K: 2, Items: []Item{0, 4, 1, 2}}, 5, true},
		{Flat{K: 1, Items: []Item{7, 3}}, 8, true},
		{Flat{K: 3, Items: []Item{0, 1, 9, 2, 3, 4}}, 10, true},
		{Flat{K: 2, Items: []Item{-3, 4}}, 0, false},
		{Flat{K: 2, Items: []Item{0, 4, 2, 2}}, 0, false},
		{Flat{K: 1, Items: []Item{-1}}, 0, false},
		{Flat{K: 3, Items: []Item{0, 1, 2, 3, 5, 4}}, 0, false},
		{Flat{K: 3, Items: []Item{-2, 1, 2}}, 0, false},
	}
	for _, c := range cases {
		span, err := c.f.Check()
		if (err == nil) != c.ok || span != c.span {
			t.Errorf("Check(%+v) = %d, %v; want %d, ok %v", c.f, span, err, c.span, c.ok)
		}
	}
}

// TestFlatIndexMatchesKeyMap diffs Find against a map keyed by Key, the
// string-keyed table it replaces: the first position of every itemset
// present, -1 for itemsets absent or of another size, over flats with
// repeats, sparse and dense item ranges, and none at all.
func TestFlatIndexMatchesKeyMap(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	randomSet := func(k int, universe int32) Itemset {
		for {
			s := make([]Item, k)
			for i := range s {
				s[i] = Item(rng.Int31n(universe))
			}
			if s := New(s...); len(s) == k {
				return s
			}
		}
	}
	for k := 1; k <= 5; k++ {
		for _, n := range []int{0, 1, 2, 7, 100, 1500} {
			for _, universe := range []int32{int32(k) + 6, 1 << 20} {
				f := Flat{K: k}
				want := map[string]int{}
				for i := 0; i < n; i++ {
					s := randomSet(k, universe)
					if i > 0 && rng.Intn(8) == 0 {
						s = f.At(rng.Intn(i)) // a repeat keeps its first position
					}
					if _, ok := want[s.Key()]; !ok {
						want[s.Key()] = i
					}
					f.Items = append(f.Items, s...)
				}
				x := f.Index()
				for i := 0; i < f.Len(); i++ {
					s := f.At(i)
					if got, at := x.Find(s), want[s.Key()]; got != at {
						t.Fatalf("k=%d n=%d: Find(%v) = %d, want %d", k, n, s, got, at)
					}
				}
				for trial := 0; trial < 300; trial++ {
					s := randomSet(k, universe)
					at, ok := want[s.Key()]
					if !ok {
						at = -1
					}
					if got := x.Find(s); got != at {
						t.Fatalf("k=%d n=%d: Find(%v) = %d, want %d", k, n, s, got, at)
					}
				}
				if k > 1 {
					if got := x.Find(randomSet(k-1, universe)); got != -1 {
						t.Fatalf("k=%d n=%d: Find of a (k-1)-itemset = %d, want -1", k, n, got)
					}
				}
			}
		}
	}
	empty := Flat{}.Index()
	if got := empty.Find(New(1)); got != -1 {
		t.Fatalf("empty Flat: Find = %d, want -1", got)
	}
	if got := empty.Find(nil); got != -1 {
		t.Fatalf("empty Flat: Find(nil) = %d, want -1", got)
	}
}
