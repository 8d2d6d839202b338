package parapriori

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"parapriori/internal/itemset"
)

func sourceFixture(t *testing.T) *Dataset {
	t.Helper()
	gen := DefaultGen()
	gen.NumTransactions = 1200
	gen.NumItems = 100
	gen.NumPatterns = 60
	gen.AvgTxnLen = 10
	gen.AvgPatternLen = 4
	gen.Seed = 21
	data, err := Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func resultBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMineFromSources mines the same transactions through every TxSource
// implementation — resident dataset, binary file, basket-text file,
// partitioned store — and requires identical results.
func TestMineFromSources(t *testing.T) {
	data := sourceFixture(t)
	opts := MineOptions{MinSupport: 0.02}
	base, err := Mine(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := resultBytes(t, base)

	dir := t.TempDir()
	binPath := filepath.Join(dir, "txns.bin")
	bf, err := os.Create(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteDatasetBinary(bf, data); err != nil {
		t.Fatal(err)
	}
	bf.Close()
	textPath := filepath.Join(dir, "txns.basket")
	tf, err := os.Create(textPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteDataset(tf, data); err != nil {
		t.Fatal(err)
	}
	tf.Close()
	store, err := WritePartitionedDataset(filepath.Join(dir, "store"), data, PartitionOptions{Partitions: 4, BlockBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}

	sources := map[string]TxSource{"dataset": data, "store": store}
	for name, path := range map[string]string{"binary-file": binPath, "text-file": textPath} {
		src, err := OpenDatasetFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sources[name] = src
	}
	for name, src := range sources {
		t.Run(name, func(t *testing.T) {
			if got, want := src.Info().NumTxns, data.Len(); got != want {
				t.Fatalf("Info().NumTxns = %d, want %d", got, want)
			}
			res, err := Mine(nil, MineOptions{MinSupport: 0.02, Source: src})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(resultBytes(t, res), want) {
				t.Error("source result differs from dataset result")
			}
		})
	}

	// A source also feeds the in-memory parallel backend (materialized).
	rep, err := MineParallel(nil, ParallelOptions{
		Algorithm: CD, Procs: 4,
		MineOptions: MineOptions{MinSupport: 0.02, Source: store},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resultBytes(t, rep.Result), want) {
		t.Error("materialized parallel result differs from dataset result")
	}
}

// TestSourceOptionErrors pins the typed errors of the source/backend seam.
func TestSourceOptionErrors(t *testing.T) {
	data := sourceFixture(t)
	store, err := WritePartitionedDataset(filepath.Join(t.TempDir(), "store"), data, PartitionOptions{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	check := func(err error, strct, field string) {
		t.Helper()
		var oe *OptionError
		if !errors.As(err, &oe) {
			t.Fatalf("want *OptionError for %s.%s, got %v", strct, field, err)
		}
		if oe.Struct != strct || oe.Field != field {
			t.Fatalf("got %s.%s error (%v), want %s.%s", oe.Struct, oe.Field, oe, strct, field)
		}
	}

	_, err = Mine(data, MineOptions{MinSupport: 0.02, Source: store})
	check(err, "MineOptions", "Source")
	_, err = Mine(nil, MineOptions{MinSupport: 0.02})
	check(err, "MineOptions", "Source")
	if _, err = Mine(nil, MineOptions{MinSupport: 0.02, Source: store, DHPBuckets: 64}); err != nil {
		t.Fatalf("DHPBuckets over a store rejected: %v", err)
	}

	par := func(mut func(*ParallelOptions)) error {
		o := ParallelOptions{Algorithm: CD, Procs: 2, MineOptions: MineOptions{MinSupport: 0.02, Source: store}, Backend: "ooc"}
		mut(&o)
		_, err := MineParallel(nil, o)
		return err
	}
	check(par(func(o *ParallelOptions) { o.Backend = "mmap" }), "ParallelOptions", "Backend")
	check(par(func(o *ParallelOptions) { o.Source = nil }), "ParallelOptions", "Source")
	check(par(func(o *ParallelOptions) { o.Source = data }), "ParallelOptions", "Source")
	if err := par(func(o *ParallelOptions) { o.Algorithm = DD }); err != nil {
		t.Fatalf("DD on the ooc backend rejected: %v", err)
	}
	check(par(func(o *ParallelOptions) { o.Algorithm = HPA }), "ParallelOptions", "Backend")
	if err := par(func(o *ParallelOptions) { o.Faults = &FaultPlan{} }); err != nil {
		t.Fatalf("a fault plan on the ooc backend rejected: %v", err)
	}

	o := ParallelOptions{Algorithm: CD, Procs: 2, MineOptions: MineOptions{MinSupport: 0.02, Source: store}, Backend: "ooc"}
	_, err = MineParallel(data, o)
	check(err, "ParallelOptions", "Source")
}

// lyingSource declares a smaller vocabulary than its transactions use.
type lyingSource struct{ *Dataset }

func (s lyingSource) Info() TxSourceInfo {
	info := s.Dataset.Info()
	info.NumItems = 2
	return info
}

// TestItemOutOfRangeIsTypedError: an item outside [0, NumItems) — negative
// in a resident dataset, too large from a source that under-declares its
// vocabulary — comes back from the first pass of every miner as an
// *itemset.ItemRangeError naming the transaction, never as an index panic.
// A repeated or out-of-order item, which only a hand-built Dataset or a
// custom source can carry, is an *itemset.ItemOrderError the same way, never
// a count taken twice.  The ooc backend runs the same first pass but cannot
// be fed such an item: the store refuses it with the same error when it is
// written.
func TestItemOutOfRangeIsTypedError(t *testing.T) {
	negative := FromItems([][]Item{{-5, 1, 2}, {1, 2}})
	tooLarge := lyingSource{FromItems([][]Item{{0, 1}, {0, 1, 7}})}
	repeated := itemset.NewDataset([]Transaction{{ID: 0, Items: Itemset{1, 2}}, {ID: 1, Items: Itemset{0, 2, 2, 3}}})
	check := func(name string, err error, txn int64, item Item, numItems int) {
		t.Helper()
		var re *itemset.ItemRangeError
		if !errors.As(err, &re) {
			t.Errorf("%s: got %v, want an *itemset.ItemRangeError", name, err)
			return
		}
		if re.Txn != txn || re.Item != item || re.NumItems != numItems {
			t.Errorf("%s: got %+v, want transaction %d, item %d, %d items", name, *re, txn, item, numItems)
		}
	}
	checkOrder := func(name string, err error) {
		t.Helper()
		var oe *itemset.ItemOrderError
		if !errors.As(err, &oe) {
			t.Errorf("%s: got %v, want an *itemset.ItemOrderError", name, err)
			return
		}
		if want := (itemset.ItemOrderError{Txn: 1, Item: 2, Prev: 2}); *oe != want {
			t.Errorf("%s: got %+v, want %+v", name, *oe, want)
		}
	}
	for _, engine := range CountEngines() {
		_, err := Mine(negative, MineOptions{MinSupport: 0.5, Engine: engine})
		check("Mine/"+engine+"/negative", err, 0, -5, 3)
		_, err = Mine(nil, MineOptions{MinSupport: 0.5, Engine: engine, Source: tooLarge})
		check("Mine/"+engine+"/too large", err, 1, 7, 2)
		_, err = Mine(repeated, MineOptions{MinSupport: 0.5, Engine: engine})
		checkOrder("Mine/"+engine+"/repeated", err)
	}
	_, err := Mine(negative, MineOptions{MinSupport: 0.5, DHPBuckets: 16})
	check("Mine/dhp/negative", err, 0, -5, 3)
	for _, algo := range []Algorithm{CD, DD, DDComm, IDD, HD, HPA} {
		o := ParallelOptions{Algorithm: algo, Procs: 2, MineOptions: MineOptions{MinSupport: 0.5}}
		_, err := MineParallel(negative, o)
		check("MineParallel/"+string(algo)+"/negative", err, 0, -5, 3)
		_, err = MineParallel(repeated, o)
		checkOrder("MineParallel/"+string(algo)+"/repeated", err)
		o.Source = tooLarge
		_, err = MineParallel(nil, o)
		check("MineParallel/"+string(algo)+"/too large", err, 1, 7, 2)
	}
	for _, o := range []PartitionOptions{{}, {Partitions: 2}} { // size-rolled, round-robin
		_, err := WritePartitionedDataset(filepath.Join(t.TempDir(), "store"), negative, o)
		check("spill/negative", err, 0, -5, 3)
		_, err = WritePartitionedDataset(filepath.Join(t.TempDir(), "store"), tooLarge, o)
		check("spill/too large", err, 1, 7, 2)
	}
}
