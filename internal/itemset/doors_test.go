package itemset_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"

	"parapriori/internal/itemset"
	"parapriori/internal/txstore"
)

// The differential targets: transactions enter through a resident reader, a
// streaming file source or a store block, and every door must take the same
// view of the same bytes.  They live outside the package because the store
// imports it.

// throughFile is the streaming door: the bytes written out, opened as a
// FileSource and drained block by block.
func throughFile(t *testing.T, raw []byte) (*itemset.Dataset, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := itemset.OpenFile(path)
	if err != nil {
		return nil, err
	}
	d, err := itemset.Materialize(src)
	if err != nil {
		t.Fatalf("OpenFile accepted what its own Blocks then refused: %v", err)
	}
	if info := src.Info(); info.NumTxns != d.Len() || info.NumItems != d.NumItems || info.Bytes != int64(d.Bytes()) {
		t.Fatalf("OpenFile reports %+v, streamed %+v", info, d.Info())
	}
	return d, nil
}

func sameDataset(t *testing.T, what string, want, got *itemset.Dataset) {
	t.Helper()
	if got.NumItems != want.NumItems || got.Len() != want.Len() {
		t.Fatalf("%s: %d transactions over %d items, want %d over %d", what, got.Len(), got.NumItems, want.Len(), want.NumItems)
	}
	for i, w := range want.Transactions {
		if g := got.Transactions[i]; g.ID != w.ID || !g.Items.Equal(w.Items) {
			t.Fatalf("%s: transaction %d is %d %v, want %d %v", what, i, g.ID, g.Items, w.ID, w.Items)
		}
	}
}

// checkAccepted holds a dataset some reader accepted to what every consumer
// assumes of one: items strictly increasing and inside the vocabulary, IDs
// non-negative and non-decreasing — and so both writers take it back
// unchanged, the binary file and the partitioned store.
func checkAccepted(t *testing.T, d *itemset.Dataset) {
	t.Helper()
	prev := int64(0)
	for _, tx := range d.Transactions {
		if !tx.Items.Valid() {
			t.Fatalf("accepted unsorted transaction %v", tx.Items)
		}
		if n := len(tx.Items); n > 0 && (tx.Items[0] < 0 || int(tx.Items[n-1]) >= d.NumItems) {
			t.Fatalf("accepted transaction %v outside its %d items", tx.Items, d.NumItems)
		}
		if tx.ID < prev {
			t.Fatalf("accepted ID %d after %d", tx.ID, prev)
		}
		prev = tx.ID
	}
	var buf bytes.Buffer
	if err := itemset.WriteBinary(&buf, d); err != nil {
		t.Fatalf("WriteBinary refused an accepted dataset: %v", err)
	}
	back, err := itemset.ReadAuto(&buf)
	if err != nil {
		t.Fatalf("ReadAuto refused what WriteBinary wrote: %v", err)
	}
	sameDataset(t, "WriteBinary → ReadAuto", d, back)
	if d.NumItems == 0 {
		return // only empty transactions: a store needs a vocabulary
	}
	dir := filepath.Join(t.TempDir(), "store")
	if _, err := txstore.Spill(dir, d, txstore.Options{BlockBytes: 64}); err != nil {
		t.Fatalf("Spill refused an accepted dataset: %v", err)
	}
	store, err := txstore.Open(dir)
	if err != nil {
		t.Fatalf("opening the spilled store: %v", err)
	}
	spilled, err := itemset.Materialize(store)
	if err != nil {
		t.Fatalf("reading the spilled store: %v", err)
	}
	sameDataset(t, "Spill → Blocks", d, spilled)
}

// binaryHeader splits a binary dataset file into the header a reader accepts
// — magic, version, a vocabulary an Item can index, a plausible count — and
// the transaction encodings after it; ok is false for any other header.
func binaryHeader(raw []byte) (numItems int, numTxns uint64, body []byte, ok bool) {
	if !bytes.HasPrefix(raw, []byte("PAPD\x01")) {
		return 0, 0, nil, false
	}
	items, w1 := binary.Uvarint(raw[5:])
	if w1 <= 0 {
		return 0, 0, nil, false
	}
	numTxns, w2 := binary.Uvarint(raw[5+w1:])
	if w2 <= 0 || items > math.MaxInt32 || numTxns > 1<<34 {
		return 0, 0, nil, false
	}
	return int(items), numTxns, raw[5+w1+w2:], true
}

// blockDecode reads a file's body the way the store reads a block:
// DecodeTransaction over verified bytes, the ID chained.
func blockDecode(numItems int, numTxns uint64, body []byte) (*itemset.Dataset, error) {
	d := &itemset.Dataset{NumItems: numItems}
	prev := int64(0)
	for i := uint64(0); i < numTxns; i++ {
		id, items, n, err := itemset.DecodeTransaction(body, prev, numItems, nil)
		if err != nil {
			return nil, err
		}
		d.Transactions = append(d.Transactions, itemset.Transaction{ID: id, Items: items})
		body, prev = body[n:], id
	}
	return d, nil
}

// binaryDoorSeeds are binary dataset files written out integer by integer:
// numItems, numTxns, then each transaction's ID delta, length and item gaps.
func binaryDoorSeeds() [][]byte {
	file := func(ints ...uint64) []byte {
		raw := []byte("PAPD\x01")
		for _, v := range ints {
			raw = binary.AppendUvarint(raw, v)
		}
		return raw
	}
	return [][]byte{
		file(7, 2, 0, 3, 1, 1, 1, 1, 2, 2, 2), // valid: {1 2 3}, {2 4}
		file(10, 1, 0, 1, 1<<32-1),            // first item narrows to -1
		file(10, 1, 0, 2, 3, 1<<32),           // gap narrows to 0: {3 3}
		file(10, 1, 0, 2, 5, 1<<32-2),         // gap narrows to -2: {5 3}
		file(10, 1, 1<<63, 1, 4),              // ID delta turns the ID negative
		file(10, 1<<33, 0, 2, 1, 2),           // 15 bytes claiming 2^33 transactions
		append(file(10, 1, 0, 2, 5), 0x80),    // item cut mid-varint
		[]byte("PAPX\x01\x0a\x00"),            // bad magic
		file(10, 2, 0, 0, 3, 0),               // transactions with no items
	}
}

// FuzzBinaryDoorsAgree: the same binary-tagged bytes through ReadAuto,
// through OpenFile + Blocks, and — the header read by hand — through the
// store's DecodeTransaction are accepted or rejected together and yield
// equal transactions; whatever is accepted passes checkAccepted.  Bytes
// without the tag are FuzzTextDoorsAgree's: every door reads them as text.
func FuzzBinaryDoorsAgree(f *testing.F) {
	for _, seed := range binaryDoorSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if !bytes.HasPrefix(raw, []byte("PAPD")) {
			return
		}
		resident, rerr := itemset.ReadAuto(bytes.NewReader(raw))
		streamed, serr := throughFile(t, raw)
		if (rerr == nil) != (serr == nil) {
			t.Fatalf("ReadAuto: %v, OpenFile: %v", rerr, serr)
		}
		if rerr == nil {
			sameDataset(t, "OpenFile + Blocks", resident, streamed)
		}
		numItems, numTxns, body, ok := binaryHeader(raw)
		if !ok {
			if rerr == nil {
				t.Fatal("ReadAuto accepted a header it should refuse")
			}
			return
		}
		decoded, derr := blockDecode(numItems, numTxns, body)
		if (rerr == nil) != (derr == nil) {
			t.Fatalf("ReadAuto: %v, DecodeTransaction: %v", rerr, derr)
		}
		if rerr != nil {
			return
		}
		sameDataset(t, "DecodeTransaction", resident, decoded)
		checkAccepted(t, resident)
	})
}

// FuzzTextDoorsAgree is the same target for basket text: ReadAuto and OpenFile +
// Blocks agree on the bytes, and what they accept passes checkAccepted.
func FuzzTextDoorsAgree(f *testing.F) {
	for _, seed := range []string{"1 2 3\n4 5\n", "# comment\n\n7\n", "3 1 2 1\n \n9\r\n", "2147483647\n", "4294967296 1\n", "-1\n", "x y z\n", ""} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if bytes.HasPrefix(raw, []byte("PAPD")) {
			return // OpenFile reads this as binary
		}
		resident, rerr := itemset.ReadAuto(bytes.NewReader(raw))
		streamed, serr := throughFile(t, raw)
		if (rerr == nil) != (serr == nil) {
			t.Fatalf("ReadAuto: %v, OpenFile: %v", rerr, serr)
		}
		if rerr != nil {
			return
		}
		sameDataset(t, "OpenFile + Blocks", resident, streamed)
		checkAccepted(t, resident)
	})
}
