package core

import (
	"bytes"
	"reflect"
	"testing"

	"parapriori/internal/apriori"
	"parapriori/internal/cluster"
	"parapriori/internal/itemset"
	"parapriori/internal/partition"
)

// TestPassCacheComputesOncePerKey asks for C_2 and its partition from eight
// ranks at once, as a pass does: all must be handed the one
// shared slice, equal to a private apriori.Gen / partition.BinPack, and a
// different row count must get its own partition.
func TestPassCacheComputesOncePerKey(t *testing.T) {
	var prev []apriori.Frequent
	for it := 0; it < 60; it++ {
		prev = append(prev, apriori.Frequent{Items: itemset.Itemset{itemset.Item(it)}, Count: 9})
	}
	r := &run{prm: Params{P: 8}.withDefaults()}
	const ranks = 8
	var cands [ranks][]itemset.Itemset
	var asgs [ranks]*partition.Assignment
	cl, err := cluster.New(ranks, cluster.T3E())
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Run(func(p *cluster.Proc) error {
		cands[p.ID()] = r.candidates(2, prev)
		asgs[p.ID()] = r.binPack(2, ranks, cands[p.ID()])
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := apriori.Gen(itemsetsOf(prev))
	if !reflect.DeepEqual(cands[0], want) {
		t.Fatalf("cached C_2 differs from apriori.Gen: %d vs %d candidates", len(cands[0]), len(want))
	}
	if !reflect.DeepEqual(asgs[0], partition.BinPack(want, ranks, 0)) {
		t.Fatal("cached partition differs from partition.BinPack")
	}
	for i := 1; i < ranks; i++ {
		if &cands[i][0] != &cands[0][0] || asgs[i] != asgs[0] {
			t.Fatalf("rank %d was handed its own copy", i)
		}
	}
	if seven := r.binPack(2, 7, cands[0]); seven == asgs[0] || len(seven.PerProc) != 7 {
		t.Fatalf("a 7-row grid was handed the 8-row partition")
	}
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
