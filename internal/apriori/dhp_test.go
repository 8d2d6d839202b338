package apriori

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"parapriori/internal/itemset"
)

func randomData(seed int64, n, vocab int) *itemset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	var txns []itemset.Transaction
	for i := 0; i < n; i++ {
		items := make([]itemset.Item, 3+rng.Intn(8))
		for j := range items {
			items[j] = itemset.Item(rng.Intn(vocab))
		}
		txns = append(txns, itemset.Transaction{ID: int64(i), Items: itemset.New(items...)})
	}
	return itemset.NewDataset(txns)
}

func TestDHPIdenticalResults(t *testing.T) {
	d := randomData(31, 500, 60)
	for _, buckets := range []int{16, 256, 4096} {
		plain, err := Mine(d, Params{MinSupport: 0.02})
		if err != nil {
			t.Fatal(err)
		}
		dhp, err := Mine(d, Params{MinSupport: 0.02, DHPBuckets: buckets})
		if err != nil {
			t.Fatal(err)
		}
		w, g := plain.All(), dhp.All()
		if len(w) != len(g) {
			t.Fatalf("buckets=%d: DHP found %d itemsets, plain %d", buckets, len(g), len(w))
		}
		for i := range w {
			if !w[i].Items.Equal(g[i].Items) || w[i].Count != g[i].Count {
				t.Fatalf("buckets=%d: itemset %d differs", buckets, i)
			}
		}
	}
}

func TestDHPPrunesCandidates(t *testing.T) {
	d := randomData(31, 500, 60)
	// With enough buckets relative to the pair space, many infrequent C2
	// candidates land in cold buckets and are pruned before counting.
	dhp, err := Mine(d, Params{MinSupport: 0.03, DHPBuckets: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Mine(d, Params{MinSupport: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	if len(dhp.Passes) < 2 || len(plain.Passes) < 2 {
		t.Skip("workload produced no pass 2")
	}
	if dhp.Passes[1].DHPPruned == 0 {
		t.Error("DHP pruned nothing")
	}
	if dhp.Passes[1].Candidates >= plain.Passes[1].Candidates {
		t.Errorf("DHP counted %d candidates, plain %d", dhp.Passes[1].Candidates, plain.Passes[1].Candidates)
	}
	if plain.Passes[1].DHPPruned != 0 {
		t.Error("plain run reports DHP pruning")
	}
}

func TestDHPFewBucketsPrunesLess(t *testing.T) {
	d := randomData(7, 600, 80)
	pruned := func(buckets int) int {
		res, err := Mine(d, Params{MinSupport: 0.03, DHPBuckets: buckets})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Passes) < 2 {
			t.Skip("no pass 2")
		}
		return res.Passes[1].DHPPruned
	}
	few, many := pruned(8), pruned(1<<16)
	if few > many {
		t.Errorf("8 buckets pruned %d, 65536 buckets pruned %d: collisions should reduce pruning", few, many)
	}
}

func TestPairBucketsSoundness(t *testing.T) {
	// A bucket count is always >= the true support of any pair hashing to
	// it: admits never rejects a truly frequent pair.
	d := randomData(99, 300, 30)
	minCount := int64(5)
	pb := newPairBuckets(64)
	if _, _, err := FirstPassSource(d, minCount, pb.addBlock); err != nil {
		t.Fatal(err)
	}
	truth := map[[2]itemset.Item]int64{}
	for _, txn := range d.Transactions {
		items := txn.Items
		for i := 0; i < len(items); i++ {
			for j := i + 1; j < len(items); j++ {
				truth[[2]itemset.Item{items[i], items[j]}]++
			}
		}
	}
	for key, count := range truth {
		if count < minCount {
			continue
		}
		pair := itemset.New(key[0], key[1])
		if !pb.admits(pair, minCount) {
			t.Fatalf("frequent pair %v (count %d) rejected by DHP filter", pair, count)
		}
	}
}

// TestFirstPassReadersSeeAcceptedBlocks: whatever rides the first pass is
// handed a block only after CountItems has accepted it, so a second reader
// may index by item without checking — and riding along changes nothing the
// pass itself reports.
func TestFirstPassReadersSeeAcceptedBlocks(t *testing.T) {
	d := randomData(3, 200, 40)
	plain, plainStats, _ := FirstPassSource(d, 4)
	seen := 0
	ridden, riddenStats, err := FirstPassSource(d, 4, func(blk []itemset.Transaction) { seen += len(blk) })
	if err != nil || seen != d.Len() {
		t.Fatalf("reader saw %d of %d transactions, err %v", seen, d.Len(), err)
	}
	if !reflect.DeepEqual(plain, ridden) || plainStats != riddenStats {
		t.Error("a second reader changed the first pass's own result")
	}

	bad := itemset.NewDataset([]itemset.Transaction{{ID: 0, Items: itemset.Itemset{1, 2}}, {ID: 1, Items: itemset.Itemset{-5, 3}}})
	_, _, err = FirstPassSource(bad, 1, func(blk []itemset.Transaction) {
		t.Errorf("reader handed a block CountItems refuses: %v", blk)
	})
	var re *itemset.ItemRangeError
	if !errors.As(err, &re) {
		t.Errorf("got %v, want an *itemset.ItemRangeError", err)
	}
}
