package core

import (
	"fmt"
	"sync"
	"testing"

	"parapriori/internal/apriori"
	"parapriori/internal/cluster"
	"parapriori/internal/itemset"
)

// carryCall is one OnCarry report: a rank built the engine of pass k, from
// the carried index or afresh.
type carryCall struct {
	k       int
	carried bool
}

// recordCarry installs OnCarry for the test and returns each rank's reports
// in the order the rank made them.
func recordCarry(t *testing.T) func() map[int][]carryCall {
	t.Helper()
	var mu sync.Mutex
	calls := map[int][]carryCall{}
	t.Cleanup(OnCarry(func(rank, k int, carried bool) {
		mu.Lock()
		defer mu.Unlock()
		calls[rank] = append(calls[rank], carryCall{k, carried})
	}))
	return func() map[int][]carryCall {
		mu.Lock()
		defer mu.Unlock()
		out := calls
		calls = map[int][]carryCall{}
		return out
	}
}

// requireCarried holds one rank's reports, from its first engine pass on, to
// the carry rule: an engine is fresh at pass from and at pass 3 (pass 2's
// pair matrix keeps no rows), and carried at every later pass.
func requireCarried(t *testing.T, rank int, calls []carryCall, from int) {
	t.Helper()
	for i, c := range calls {
		k := from + i
		if c.k != k {
			t.Fatalf("rank %d: report %d is of pass %d, want %d (%v)", rank, i, c.k, k, calls)
		}
		if want := k > from && k > 3; c.carried != want {
			t.Fatalf("rank %d: pass %d carried = %v, want %v (%v)", rank, k, c.carried, want, calls)
		}
	}
}

// TestCarriedIndexMatchesNaive mines the out-of-core fixture, resident and
// from its store, by CD × 4 on the bitset engine, and requires every pass
// after 3 to count from the index the pass before kept.  It does so once
// plainly, once with a rank lost for good inside pass 5, and once resumed
// from a checkpoint after pass 5.  Every result must equal the naive
// miner's, and after the crash and at the resume every survivor must scan
// afresh before it carries again: its blocks are no longer the ones its
// index holds, or it holds none.
func TestCarriedIndexMatchesNaive(t *testing.T) {
	data, store := oocFixture(t)
	ap := apriori.Params{MinSupport: 0.02, Engine: "bitset"}
	naive, err := apriori.MineNaive(data, ap)
	if err != nil {
		t.Fatal(err)
	}
	calls := recordCarry(t)
	for _, src := range []struct {
		name string
		src  itemset.Source
	}{{"resident", data}, {"store", store}} {
		prm := Params{Algo: CD, P: 4, Apriori: ap}
		var plain *Report
		t.Run(src.name+"/plain", func(t *testing.T) {
			calls()
			if plain, err = Mine(src.src, prm); err != nil {
				t.Fatal(err)
			}
			assertSameFrequent(t, naive, plain)
			if len(plain.Passes) < 7 {
				t.Fatalf("%d passes: too shallow to carry from pass 4 to pass 7", len(plain.Passes))
			}
			got := calls()
			for rank := 0; rank < prm.P; rank++ {
				if len(got[rank]) != len(plain.Passes)-1 {
					t.Fatalf("rank %d: %d engine passes reported, want %d", rank, len(got[rank]), len(plain.Passes)-1)
				}
				requireCarried(t, rank, got[rank], 2)
			}
		})
		if plain == nil {
			continue
		}

		t.Run(src.name+"/crash", func(t *testing.T) {
			// Rank 1 dies for good halfway through pass 5 of the plain run.
			at := plain.Passes[4].ResponseTime / 2
			for _, pass := range plain.Passes[:4] {
				at += pass.ResponseTime
			}
			faulty := prm
			faulty.Faults = &cluster.FaultPlan{Seed: 3, Crashes: []cluster.Crash{{Rank: 1, At: at, Permanent: true}}}
			calls()
			rep, err := Mine(src.src, faulty)
			if err != nil {
				t.Fatal(err)
			}
			assertSameFrequent(t, naive, rep)
			if rep.Restarts == 0 || fmt.Sprint(rep.LostRanks) != "[1]" {
				t.Fatalf("restarts %d, lost ranks %v: the crash did not land", rep.Restarts, rep.LostRanks)
			}
			got := calls()
			for _, rank := range []int{0, 2, 3} {
				rc := got[rank]
				restart := 1
				for restart < len(rc) && rc[restart].k > rc[restart-1].k {
					restart++
				}
				if restart == len(rc) || rc[restart].k < 5 {
					t.Fatalf("rank %d: no re-entry at pass 5 or later in %v", rank, rc)
				}
				requireCarried(t, rank, rc[:restart], 2)
				requireCarried(t, rank, rc[restart:], rc[restart].k)
			}
		})

		t.Run(src.name+"/resume", func(t *testing.T) {
			dir := t.TempDir()
			first := prm
			first.CheckpointDir, first.Apriori.MaxPasses = dir, 5
			if _, err := Mine(src.src, first); err != nil {
				t.Fatal(err)
			}
			resumed := prm
			resumed.CheckpointDir = dir
			calls()
			rep, err := Mine(src.src, resumed)
			if err != nil {
				t.Fatal(err)
			}
			assertSameFrequent(t, naive, rep)
			if rep.ResumedPasses != 5 {
				t.Fatalf("ResumedPasses = %d, want 5", rep.ResumedPasses)
			}
			got := calls()
			for rank := 0; rank < prm.P; rank++ {
				requireCarried(t, rank, got[rank], 6)
			}
		})
	}
}
