package txstore_test

import (
	"bytes"
	"testing"

	"parapriori/internal/apriori"
	"parapriori/internal/core"
	"parapriori/internal/countengine"
	"parapriori/internal/datagen"
	"parapriori/internal/txstore"
)

// TestPoisonedBuffersStayExact proves nothing downstream retains a recycled
// block.  Reader buffers now live across partitions and passes, so a
// transaction, item slice or payload kept past the next Next or Close would
// silently read another block's data; with the poison seam on it reads
// negative items and IDs instead.  Under it the serial streaming miner and
// every grid formulation x engine must still produce the in-memory result
// byte for byte.
func TestPoisonedBuffersStayExact(t *testing.T) {
	gp := datagen.Defaults()
	gp.NumTransactions = 1200
	gp.NumItems = 100
	gp.NumPatterns = 60
	gp.AvgTxnLen = 10
	gp.AvgPatternLen = 4
	gp.Seed = 21
	data, err := datagen.Generate(gp)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	dir := t.TempDir()
	if _, err := txstore.Spill(dir, data, txstore.Options{Partitions: 5, BlockBytes: 2048}); err != nil {
		t.Fatalf("spill: %v", err)
	}
	store, err := txstore.Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	// SetPoison lives in export_test.go.  checkinv type-checks this package
	// against txstore's non-test sources, where the method does not exist,
	// so it is reached through an assertion instead of named statically.
	any(store).(interface{ SetPoison() }).SetPoison()

	resultBytes := func(res *apriori.Result) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := apriori.WriteResult(&buf, res); err != nil {
			t.Fatalf("serialize: %v", err)
		}
		return buf.Bytes()
	}

	// The seam is live: a block kept across Next comes back scribbled.
	r, err := store.OpenPartition(0, true)
	if err != nil {
		t.Fatalf("open partition: %v", err)
	}
	kept, _, _, err := r.Next()
	if err != nil {
		t.Fatalf("first block: %v", err)
	}
	if _, _, _, err := r.Next(); err != nil {
		t.Fatalf("second block: %v", err)
	}
	r.Close()
	if kept[0].ID != -1 || kept[0].Items != nil {
		t.Fatalf("poison seam left a retained block intact: %+v", kept[0])
	}

	const minsup = 0.02
	for _, eng := range countengine.Names() {
		ap := apriori.Params{MinSupport: minsup, Engine: eng}
		serial, err := apriori.MineSource(store, ap)
		if err != nil {
			t.Fatalf("serial/%s: %v", eng, err)
		}
		want, err := apriori.Mine(data, ap)
		if err != nil {
			t.Fatalf("inmem serial/%s: %v", eng, err)
		}
		if !bytes.Equal(resultBytes(serial), resultBytes(want)) {
			t.Errorf("serial/%s: poisoned streaming result differs from in-memory", eng)
		}
		for _, algo := range []core.Algorithm{core.CD, core.IDD, core.HD} {
			inmem, err := core.Mine(data, core.Params{Algo: algo, P: 6, Apriori: ap})
			if err != nil {
				t.Fatalf("%s/%s inmem: %v", algo, eng, err)
			}
			ooc, err := core.Mine(store, core.Params{Algo: algo, P: 6, Apriori: ap})
			if err != nil {
				t.Fatalf("%s/%s ooc: %v", algo, eng, err)
			}
			if !bytes.Equal(resultBytes(ooc.Result), resultBytes(inmem.Result)) {
				t.Errorf("%s/%s: poisoned ooc result differs from in-memory", algo, eng)
			}
		}
	}
}
