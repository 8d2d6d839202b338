package core

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"parapriori/internal/apriori"
	"parapriori/internal/itemset"
)

func TestHPAMatchesSerial(t *testing.T) {
	d := testData(t)
	const minsup = 0.02
	want := serialResult(t, d, minsup)
	for _, p := range []int{1, 2, 4, 8} {
		rep, err := Mine(d, Params{Algo: HPA, P: p, Apriori: apriori.Params{MinSupport: minsup}})
		if err != nil {
			t.Fatalf("HPA P=%d: %v", p, err)
		}
		assertSameFrequent(t, want, rep)
	}
}

func TestHPAMovesDataForKAbove2(t *testing.T) {
	d := testData(t)
	rep, err := Mine(d, Params{Algo: HPA, P: 4, Apriori: apriori.Params{MinSupport: 0.02}})
	if err != nil {
		t.Fatal(err)
	}
	// HPA ships potential candidates every pass; with P>1 some must cross
	// processors.
	var moved int64
	for _, pass := range rep.Passes {
		if pass.K >= 2 {
			moved += pass.BytesMoved
		}
	}
	if moved == 0 {
		t.Error("HPA moved no candidate bytes")
	}
}

func TestHPACommunicationExceedsIDDAtHighK(t *testing.T) {
	// Section III-E: the number of potential candidates per transaction is
	// O(C(I, k)), so for k >= 3 HPA's communication volume overtakes
	// IDD's O(N) transaction movement.
	d := testData(t)
	const minsup = 0.015
	run := func(algo Algorithm) *Report {
		rep, err := Mine(d, Params{Algo: algo, P: 8, Apriori: apriori.Params{MinSupport: minsup}})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		return rep
	}
	hpa, idd := run(HPA), run(IDD)
	sum := func(rep *Report, fromK int) int64 {
		var b int64
		for _, pass := range rep.Passes {
			if pass.K >= fromK {
				b += pass.BytesMoved
			}
		}
		return b
	}
	if hpaHighK, iddHighK := sum(hpa, 3), sum(idd, 3); hpaHighK <= iddHighK {
		t.Errorf("for k>=3 HPA moved %d bytes, IDD %d: expected HPA above IDD", hpaHighK, iddHighK)
	}
}

func TestForEachSubset(t *testing.T) {
	s := itemset.New(1, 2, 3, 4)
	var got []itemset.Itemset
	forEachSubset(s, 2, func(sub itemset.Itemset) {
		got = append(got, slices.Clone(sub))
	})
	want := []itemset.Itemset{
		{1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d subsets, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Errorf("subset %d = %v, want %v", i, got[i], want[i])
		}
	}
	// Degenerate sizes.
	calls := 0
	forEachSubset(s, 0, func(itemset.Itemset) { calls++ })
	forEachSubset(s, 5, func(itemset.Itemset) { calls++ })
	if calls != 0 {
		t.Errorf("degenerate k produced %d subsets", calls)
	}
	forEachSubset(s, 4, func(sub itemset.Itemset) {
		if !sub.Equal(s) {
			t.Errorf("k=len subset = %v", sub)
		}
		calls++
	})
	if calls != 1 {
		t.Errorf("k=len produced %d subsets", calls)
	}
}

func TestForEachSubsetCounts(t *testing.T) {
	// C(8, k) subsets for each k.
	s := itemset.New(0, 1, 2, 3, 4, 5, 6, 7)
	want := []int{8, 28, 56, 70, 56, 28, 8, 1}
	for k := 1; k <= 8; k++ {
		n := 0
		forEachSubset(s, k, func(itemset.Itemset) { n++ })
		if n != want[k-1] {
			t.Errorf("C(8,%d): got %d, want %d", k, n, want[k-1])
		}
	}
}

func TestHPAOwnerInRangeAndSpread(t *testing.T) {
	const procs = 8
	counts := make([]int, procs)
	for a := 0; a < 40; a++ {
		for b := a + 1; b < 40; b++ {
			o := hpaOwner(itemset.New(itemset.Item(a), itemset.Item(b)), procs)
			if o < 0 || o >= procs {
				t.Fatalf("owner %d out of range", o)
			}
			counts[o]++
		}
	}
	// FNV over 780 pairs should not leave any processor starved.
	for i, c := range counts {
		if c < 40 {
			t.Errorf("processor %d owns only %d of 780 pairs", i, c)
		}
	}
}

// TestHPAOwnerMatchesFNV diffs the inline owner against the standard
// library's FNV-1a over the same four little-endian bytes per item, so that
// every itemset keeps the owner it had.
func TestHPAOwnerMatchesFNV(t *testing.T) {
	reference := func(s itemset.Itemset, procs int) int {
		h := fnv.New32a()
		for _, it := range s {
			h.Write(binary.LittleEndian.AppendUint32(nil, uint32(it)))
		}
		return int(h.Sum32() % uint32(procs))
	}
	rng := rand.New(rand.NewSource(51))
	for k := 1; k <= 6; k++ {
		for trial := 0; trial < 200; trial++ {
			items := make([]itemset.Item, k)
			for i := range items {
				// Some items above 2^24, so that every byte of an item is mixed.
				items[i] = itemset.Item(rng.Int31n(1 << 26))
			}
			s := itemset.New(items...)
			for procs := 1; procs <= 64; procs++ {
				if got, want := hpaOwner(s, procs), reference(s, procs); got != want {
					t.Fatalf("hpaOwner(%v, %d) = %d, FNV-1a reference %d", s, procs, got, want)
				}
			}
		}
	}
}
