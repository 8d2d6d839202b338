package core

import (
	"bytes"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"parapriori/internal/apriori"
	"parapriori/internal/bitmap"
	"parapriori/internal/cluster"
	"parapriori/internal/datagen"
	"parapriori/internal/itemset"
	"parapriori/internal/partition"
)

// TestPassCacheComputesOncePerKey asks for pass 2's and then pass 3's
// candidates and row shares from eight ranks at once, as a pass does, on an
// 8 × 1 grid, on HD's 2 × 4 one and on CD's replicated 1 × 8 one.  Every rank
// that needs C_k whole (pass 3, and pass 2 on one row) must be handed the one
// flat C_k, its Items the same backing array, equal to a private
// apriori.GenFlat (and to the header adapters' output); pass 2 on a grid must
// not generate C_2 at all.  On a grid all ranks must be handed the one
// partition, equal to a private partition.BinPackFlat over apriori.GenFlat —
// the whole assignment at k = 3, the groups and counts at k = 2, where it
// holds F_1's items instead of C_2 — every column of a row the one flat
// share, its Items the same backing array, equal to Share of that row, and
// the one bitmap of exactly that row's first items; and a different row
// count its own partition.
func TestPassCacheComputesOncePerKey(t *testing.T) {
	var f1, f2 []apriori.Frequent
	for it := 0; it < 60; it++ {
		f1 = append(f1, apriori.Frequent{Items: itemset.Itemset{itemset.Item(it)}, Count: 9})
	}
	for a := 0; a < 20; a++ {
		for b := a + 1; b < 20; b++ {
			f2 = append(f2, apriori.Frequent{Items: itemset.Itemset{itemset.Item(a), itemset.Item(b)}, Count: 9})
		}
	}
	const ranks = 8
	for _, k := range []int{2, 3} {
		prev := map[int][]apriori.Frequent{2: f1, 3: f2}[k]
		want := apriori.GenFlat(itemsetsOf(prev))
		if !reflect.DeepEqual(want.Itemsets(), apriori.Gen(itemsetsOf(prev))) {
			t.Fatalf("k=%d: apriori.Gen differs from apriori.GenFlat", k)
		}
		for _, g := range []int{ranks, 2, 1} {
			r := &run{prm: Params{P: ranks}.withDefaults(), numItems: len(f1)}
			cols := ranks / g
			whole := k > 2 || g == 1 // some rank needs C_k whole
			var cands [ranks]itemset.Flat
			var shares [ranks]share
			var asgs [ranks]*partition.Assignment
			cl, err := cluster.New(ranks, cluster.T3E())
			if err != nil {
				t.Fatal(err)
			}
			if err := cl.Run(func(p *cluster.Proc) error {
				c := r.candSet(k, prev)
				if whole {
					cands[p.ID()] = r.candidates(k, prev)
				}
				if g > 1 {
					shares[p.ID()] = r.binPack(c, g, p.ID()/cols)
					asgs[p.ID()] = r.memo(passKey{k: k, g: g}).asg
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if c := r.candSet(k, prev); c.m != want.Len() {
				t.Fatalf("k=%d: |C_k| = %d, want %d", k, c.m, want.Len())
			}
			if generated := r.memos[passKey{k: k}]; (generated != nil) != whole {
				t.Fatalf("k=%d g=%d: C_k generated = %v", k, g, generated != nil)
			}
			if whole {
				if !reflect.DeepEqual(cands[0], want) {
					t.Fatalf("k=%d g=%d: cached C_k differs from apriori.GenFlat: %d vs %d candidates", k, g, cands[0].Len(), want.Len())
				}
				for i := range cands {
					if &cands[i].Items[0] != &cands[0].Items[0] {
						t.Fatalf("k=%d g=%d: rank %d was handed its own C_k", k, g, i)
					}
				}
			}
			if g == 1 {
				continue
			}
			asg := asgs[0]
			packed := partition.BinPackFlat(want, g, 0)
			if !reflect.DeepEqual(packed, partition.BinPack(want.Itemsets(), g, 0)) {
				t.Fatalf("k=%d g=%d: partition.BinPackFlat differs from partition.BinPack", k, g)
			}
			if k > 2 && !reflect.DeepEqual(asg, packed) ||
				!reflect.DeepEqual(asg.GroupsOf, packed.GroupsOf) || !reflect.DeepEqual(asg.Counts, packed.Counts) {
				t.Fatalf("k=%d g=%d: cached partition differs from partition.BinPackFlat", k, g)
			}
			for i := 0; i < ranks; i++ {
				row, lead := i/cols, i/cols*cols
				if asgs[i] != asg {
					t.Fatalf("k=%d g=%d: rank %d was handed its own partition", k, g, i)
				}
				if !reflect.DeepEqual(shares[i].cands, packed.Share(row)) {
					t.Fatalf("k=%d g=%d: rank %d's share differs from row %d's Share", k, g, i, row)
				}
				if &shares[i].cands.Items[0] != &shares[lead].cands.Items[0] || shares[i].filter != shares[lead].filter {
					t.Fatalf("k=%d g=%d: rank %d was handed its own copy of row %d's share", k, g, i, row)
				}
				if row > 0 && &shares[i].cands.Items[0] == &shares[0].cands.Items[0] {
					t.Fatalf("k=%d g=%d: row %d was handed row 0's share", k, g, row)
				}
				if got, want := filterItems(shares[i].filter, len(f1)), firstItems(packed.GroupsOf[row]); !reflect.DeepEqual(got, want) {
					t.Fatalf("k=%d g=%d: rank %d's filter holds %v, want %v", k, g, i, got, want)
				}
			}
			r.binPack(r.candSet(k, prev), 7, 0)
			if seven := r.memos[passKey{k: k, g: 7}].asg; seven == asg || len(seven.Counts) != 7 {
				t.Fatalf("k=%d g=%d: a 7-row grid was handed the %d-row partition", k, g, g)
			}
		}
	}
}

// TestPassCacheRowsMatchGeneratedC2 diffs the rows-first pass-2 partition,
// packed from F_1's items without C_2, against partition.BinPackFlat over
// apriori.GenFlat's C_2: groups, counts, imbalance, each row's share and its
// first-item filter, for |F_1| up to 40 on 1 to 9 rows and on more rows than
// F_1 has.  F_1's items are spread out, so an item is never its own row
// number.  Small F_1 on many rows has rows longer than ⌈M/G⌉, which split
// into one-pair groups.
func TestPassCacheRowsMatchGeneratedC2(t *testing.T) {
	split := 0
	for _, n := range []int{0, 1, 2, 3, 5, 7, 8, 13, 21, 32, 40} {
		var f1 []apriori.Frequent
		for i := 0; i < n; i++ {
			f1 = append(f1, apriori.Frequent{Items: itemset.Itemset{itemset.Item(3*i + 1)}, Count: 9})
		}
		numItems := 3*n + 2
		c2 := apriori.GenFlat(itemsetsOf(f1))
		for _, g := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, n + 2} {
			r := &run{prm: Params{P: g}.withDefaults(), numItems: numItems}
			want := partition.BinPackFlat(c2, g, 0)
			shares := make([]share, g)
			for row := range shares {
				shares[row] = r.binPack(r.candSet(2, f1), g, row)
			}
			if r.memos[passKey{k: 2}] != nil {
				t.Fatalf("n=%d g=%d: C_2 was generated", n, g)
			}
			got := r.memos[passKey{k: 2, g: g}].asg
			if !reflect.DeepEqual(got.GroupsOf, want.GroupsOf) || !reflect.DeepEqual(got.Counts, want.Counts) {
				t.Fatalf("n=%d g=%d: groups %v counts %v, want %v %v", n, g, got.GroupsOf, got.Counts, want.GroupsOf, want.Counts)
			}
			if got.Imbalance() != want.Imbalance() {
				t.Fatalf("n=%d g=%d: imbalance %v, want %v", n, g, got.Imbalance(), want.Imbalance())
			}
			for row, sh := range shares {
				if w := want.Share(row); !slices.Equal(sh.cands.Items, w.Items) || sh.cands.Len() != w.Len() {
					t.Fatalf("n=%d g=%d: row %d's share %v, want %v", n, g, row, sh.cands.Items, w.Items)
				}
				if sh.imbalance != want.Imbalance() {
					t.Fatalf("n=%d g=%d: row %d's imbalance %v, want %v", n, g, row, sh.imbalance, want.Imbalance())
				}
				if f, w := filterItems(sh.filter, numItems), firstItems(want.GroupsOf[row]); !reflect.DeepEqual(f, w) {
					t.Fatalf("n=%d g=%d: row %d's filter holds %v, want %v", n, g, row, f, w)
				}
				for _, grp := range want.GroupsOf[row] {
					if grp.HasSecond {
						split++
					}
				}
			}
		}
	}
	if split == 0 {
		t.Fatal("no row was split by second item: the split path went untested")
	}
}

// filterItems lists the items a share's filter holds, in order.
func filterItems(f *bitmap.Bitmap, numItems int) []int {
	var out []int
	for it := 0; it < numItems; it++ {
		if f.Test(it) {
			out = append(out, it)
		}
	}
	return out
}

// firstItems lists the groups' distinct first items, in order.
func firstItems(groups []partition.Group) []int {
	var out []int
	for _, grp := range groups {
		out = append(out, int(grp.First))
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// TestFlatCandidatesAllocBound guards pass 2 on a grid: it mines pass 2 of
// a dense input (400 items, ~79 K candidates) with HD on an 8 × 1 grid and
// bounds the run's allocation per C_2 candidate.  The rows' shares are
// written from F_1 and C_2 itself is never generated; with the shares and
// the count vectors flat and each rank's pair-indexed tree holding its
// counts but no candidate slots, a run allocates ~27 bytes per candidate.
// C_2 materialised again, flat, adds its 8 bytes a pair (~35, the bound was
// 44 while it was); trees that keep the slot arrays (a permutation, the
// items in slot order, a mark bitmap) add ~17; a share held as
// []itemset.Itemset adds its 24-byte headers.
func TestFlatCandidatesAllocBound(t *testing.T) {
	p := datagen.Defaults()
	p.NumTransactions = 2000
	p.NumItems = 400
	p.AvgTxnLen = 15
	p.Seed = 5
	d, err := datagen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	prm := Params{Algo: HD, P: 8, Apriori: apriori.Params{MinSupport: 0.01, MaxPasses: 2}}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rep, err := Mine(d, prm)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	pass2 := rep.Passes[1]
	if pass2.GridRows != 8 || pass2.Candidates < 70000 {
		t.Fatalf("pass 2 ran %d candidates on %d rows; want a dense C_2 on 8", pass2.Candidates, pass2.GridRows)
	}
	const bound = 30 // bytes per C_2 candidate
	per := float64(after.TotalAlloc-before.TotalAlloc) / float64(pass2.Candidates)
	if per > bound {
		t.Fatalf("mining allocated %.1f bytes per C_2 candidate, want at most %d: is C_2 generated on a grid again, or are per-candidate headers or tree slots back?", per, bound)
	}
	t.Logf("%.1f bytes per C_2 candidate (bound %d)", per, bound)
}

// TestSharedCandidatesStayExact runs IDD and HD on eight ranks that build
// their trees from, and prune their frequent sets out of, one shared
// candidate slice.  Under -race any rank writing it is reported; the
// result must be the serial miner's, byte for byte — fault-free, and when
// a transient crash rolls a pass back and a permanent one shrinks the grid
// to seven ranks, so pass k is re-entered with a different row count.
func TestSharedCandidatesStayExact(t *testing.T) {
	d := testData(t)
	const minsup = 0.02
	want := resultBytes(t, serialResult(t, d, minsup))
	plans := map[string]*cluster.FaultPlan{
		"fault-free": nil,
		"crash+loss": {Seed: 3, Crashes: []cluster.Crash{
			// Pass 2.  Detecting it costs the survivors ~0.1 virtual seconds.
			{Rank: 5, At: 4e-3},
			// Pass 3 of the recovered run, pass 2 done on all eight.
			{Rank: 2, At: 122e-3, Permanent: true},
		}},
	}
	for _, algo := range []Algorithm{IDD, HD} {
		for name, plan := range plans {
			t.Run(string(algo)+"/"+name, func(t *testing.T) {
				rep, err := Mine(d, Params{Algo: algo, P: 8, HDThreshold: 100, Apriori: apriori.Params{MinSupport: minsup}, Faults: plan})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(resultBytes(t, rep.Result), want) {
					t.Fatal("result differs from the serial miner's")
				}
				if plan == nil {
					return
				}
				if rep.Restarts < 2 || len(rep.LostRanks) != 1 {
					t.Fatalf("restarts = %d, lost = %v: the plan did not roll back twice and lose one rank", rep.Restarts, rep.LostRanks)
				}
				shapes := map[int]bool{}
				for _, pass := range rep.Passes[1:] {
					shapes[pass.GridRows*pass.GridCols] = true
				}
				if !shapes[8] || !shapes[7] {
					t.Fatalf("want passes on the 8-rank and on the 7-rank grid, got %v", shapes)
				}
			})
		}
	}
}
