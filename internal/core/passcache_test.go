package core

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"parapriori/internal/apriori"
	"parapriori/internal/cluster"
	"parapriori/internal/datagen"
	"parapriori/internal/itemset"
	"parapriori/internal/partition"
)

// TestPassCacheComputesOncePerKey asks for C_2, its partition and the
// rank's row share from eight ranks at once, as a pass does, on an 8 × 1
// grid and on HD's 2 × 4 one: all must be handed the one shared flat C_2 and
// partition, equal to a private apriori.GenFlat / partition.BinPackFlat (and
// to the header adapters' output); every column of a row the one flat share,
// its Items the same backing array, equal to Share of that row, and the one
// bitmap of exactly that row's first items; and a different row count its
// own partition.
func TestPassCacheComputesOncePerKey(t *testing.T) {
	var prev []apriori.Frequent
	for it := 0; it < 60; it++ {
		prev = append(prev, apriori.Frequent{Items: itemset.Itemset{itemset.Item(it)}, Count: 9})
	}
	const ranks = 8
	for _, g := range []int{ranks, 2} {
		r := &run{prm: Params{P: ranks}.withDefaults(), numItems: len(prev)}
		cols := ranks / g
		var cands [ranks]itemset.Flat
		var shares [ranks]share
		var asgs [ranks]*partition.Assignment
		cl, err := cluster.New(ranks, cluster.T3E())
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Run(func(p *cluster.Proc) error {
			cands[p.ID()] = r.candidates(2, prev)
			asgs[p.ID()], shares[p.ID()] = r.binPack(2, g, p.ID()/cols, cands[p.ID()])
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		want := apriori.GenFlat(itemsetsOf(prev))
		if !reflect.DeepEqual(cands[0], want) {
			t.Fatalf("cached C_2 differs from apriori.GenFlat: %d vs %d candidates", cands[0].Len(), want.Len())
		}
		if !reflect.DeepEqual(want.Itemsets(), apriori.Gen(itemsetsOf(prev))) {
			t.Fatal("apriori.Gen differs from apriori.GenFlat")
		}
		packed := partition.BinPackFlat(want, g, 0)
		if !reflect.DeepEqual(asgs[0], packed) || !reflect.DeepEqual(packed, partition.BinPack(want.Itemsets(), g, 0)) {
			t.Fatalf("g=%d: cached partition differs from partition.BinPackFlat or partition.BinPack", g)
		}
		for i := 0; i < ranks; i++ {
			if &cands[i].Items[0] != &cands[0].Items[0] || asgs[i] != asgs[0] {
				t.Fatalf("g=%d: rank %d was handed its own C_2 or partition", g, i)
			}
			row, lead := i/cols, i/cols*cols
			if !reflect.DeepEqual(shares[i].cands, packed.Share(row)) {
				t.Fatalf("g=%d: rank %d's share differs from row %d's Share", g, i, row)
			}
			if &shares[i].cands.Items[0] != &shares[lead].cands.Items[0] || shares[i].filter != shares[lead].filter {
				t.Fatalf("g=%d: rank %d was handed its own copy of row %d's share", g, i, row)
			}
			if row > 0 && &shares[i].cands.Items[0] == &shares[0].cands.Items[0] {
				t.Fatalf("g=%d: row %d was handed row 0's share", g, row)
			}
			firsts := map[int]bool{}
			for _, grp := range packed.GroupsOf[row] {
				firsts[int(grp.First)] = true
			}
			for it := 0; it < len(prev); it++ {
				if shares[i].filter.Test(it) != firsts[it] {
					t.Fatalf("g=%d: rank %d's filter has item %d = %v, want %v", g, i, it, shares[i].filter.Test(it), firsts[it])
				}
			}
		}
		if seven, _ := r.binPack(2, 7, 0, cands[0]); seven == asgs[0] || len(seven.Counts) != 7 {
			t.Fatalf("g=%d: a 7-row grid was handed the %d-row partition", g, g)
		}
	}
}

// TestFlatCandidatesAllocBound guards the flat C_k: it mines pass 2 of a
// dense input (400 items, ~79 K candidates) with HD on an 8 × 1 grid and
// bounds the run's allocation per C_2 candidate.  With C_k, the row shares
// and the count vectors flat and handed over, and each rank's pair-indexed
// tree holding its counts but no candidate slots, a run allocates ~35 bytes
// per candidate.  Trees that keep the slot arrays (a permutation, the items
// in slot order, a mark bitmap) bring it to ~52; a share held as
// []itemset.Itemset adds its 24-byte headers, and headers on C_2 itself as
// many again.
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
	const bound = 44 // bytes per C_2 candidate
	per := float64(after.TotalAlloc-before.TotalAlloc) / float64(pass2.Candidates)
	if per > bound {
		t.Fatalf("mining allocated %.1f bytes per C_2 candidate, want at most %d: are per-candidate headers or tree slots back?", per, bound)
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
