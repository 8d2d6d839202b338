package itemset

import (
	"bufio"
	"bytes"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

// readBinary and readText are the resident decoders without ReadAuto's
// sniff, so a test can hand either one any bytes.
func readBinary(r io.Reader) (*Dataset, error) { return collect(bufio.NewReader(r), streamBinary) }

func readText(r io.Reader) (*Dataset, error) { return collect(bufio.NewReader(r), streamText) }

func TestBinaryRoundTrip(t *testing.T) {
	d := sample()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := readBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != d.Len() || got.NumItems != d.NumItems {
		t.Fatalf("shape: %d/%d vs %d/%d", got.Len(), got.NumItems, d.Len(), d.NumItems)
	}
	for i := range d.Transactions {
		if got.Transactions[i].ID != d.Transactions[i].ID {
			t.Errorf("transaction %d ID %d, want %d", i, got.Transactions[i].ID, d.Transactions[i].ID)
		}
		if !got.Transactions[i].Items.Equal(d.Transactions[i].Items) {
			t.Errorf("transaction %d items %v, want %v", i, got.Transactions[i].Items, d.Transactions[i].Items)
		}
	}
}

func TestBinaryRoundTripRandom(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var txns []Transaction
		id := int64(0)
		for i := 0; i < int(n); i++ {
			id += int64(rng.Intn(3)) // non-decreasing, possibly sparse IDs
			items := make([]Item, 1+rng.Intn(10))
			for j := range items {
				items[j] = Item(rng.Intn(1000))
			}
			txns = append(txns, Transaction{ID: id, Items: New(items...)})
		}
		d := NewDataset(txns)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, d); err != nil {
			return false
		}
		got, err := readBinary(&buf)
		if err != nil {
			return false
		}
		if got.Len() != d.Len() {
			return false
		}
		for i := range d.Transactions {
			if got.Transactions[i].ID != d.Transactions[i].ID ||
				!got.Transactions[i].Items.Equal(d.Transactions[i].Items) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBinarySmallerThanText(t *testing.T) {
	// 500 dense transactions: the varint+delta format should beat text.
	var txns []Transaction
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 500; i++ {
		items := make([]Item, 10)
		for j := range items {
			items[j] = Item(rng.Intn(900))
		}
		txns = append(txns, Transaction{ID: int64(i), Items: New(items...)})
	}
	d := NewDataset(txns)
	var bin, txt bytes.Buffer
	if err := WriteBinary(&bin, d); err != nil {
		t.Fatal(err)
	}
	if err := Write(&txt, d); err != nil {
		t.Fatal(err)
	}
	if bin.Len() >= txt.Len() {
		t.Errorf("binary %d bytes >= text %d bytes", bin.Len(), txt.Len())
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("PAP"),
		[]byte("XXXX\x01"),
		[]byte("PAPD\x02"),     // wrong version
		[]byte("PAPD\x01\xff"), // truncated varint
	}
	for i, in := range cases {
		if _, err := readBinary(bytes.NewReader(in)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestBinaryRejectsTruncatedBody(t *testing.T) {
	d := sample()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, d); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{len(full) - 1, len(full) / 2, 6} {
		if _, err := readBinary(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestBinaryRejectsOutOfVocabulary(t *testing.T) {
	// Hand-craft: numItems=2 but an item of 5.
	var buf bytes.Buffer
	buf.WriteString("PAPD\x01")
	buf.WriteByte(2) // numItems
	buf.WriteByte(1) // numTxns
	buf.WriteByte(0) // id delta
	buf.WriteByte(1) // item count
	buf.WriteByte(5) // item 5 >= 2
	if _, err := readBinary(&buf); err == nil {
		t.Error("out-of-vocabulary item accepted")
	}
}

func TestWriteBinaryValidates(t *testing.T) {
	bad := &Dataset{NumItems: 10, Transactions: []Transaction{
		{ID: 5, Items: New(1)},
		{ID: 3, Items: New(2)}, // decreasing ID
	}}
	if err := WriteBinary(&bytes.Buffer{}, bad); err == nil {
		t.Error("decreasing IDs accepted")
	}
	unsorted := &Dataset{NumItems: 10, Transactions: []Transaction{
		{ID: 0, Items: Itemset{3, 1}},
	}}
	if err := WriteBinary(&bytes.Buffer{}, unsorted); err == nil {
		t.Error("unsorted items accepted")
	}
}

func TestReadAuto(t *testing.T) {
	d := sample()
	var bin, txt bytes.Buffer
	if err := WriteBinary(&bin, d); err != nil {
		t.Fatal(err)
	}
	if err := Write(&txt, d); err != nil {
		t.Fatal(err)
	}
	fromBin, err := ReadAuto(&bin)
	if err != nil {
		t.Fatal(err)
	}
	fromTxt, err := ReadAuto(&txt)
	if err != nil {
		t.Fatal(err)
	}
	if fromBin.Len() != d.Len() || fromTxt.Len() != d.Len() {
		t.Errorf("auto-detect lost transactions: %d, %d, want %d", fromBin.Len(), fromTxt.Len(), d.Len())
	}
	// Text starting with digits must not be mistaken for binary.
	if _, err := ReadAuto(strings.NewReader("1 2 3\n")); err != nil {
		t.Errorf("plain text rejected: %v", err)
	}
}

// binaryFile frames transaction encodings as a binary dataset file.
func binaryFile(numItems, numTxns uint64, body ...[]byte) []byte {
	out := append([]byte(binaryMagic), binaryVersion)
	out = append(out, uvarints(numItems, numTxns)...)
	for _, b := range body {
		out = append(out, b...)
	}
	return out
}

// craftedTxns are single-transaction encodings over a vocabulary of 10 whose
// item integers only look legal once narrowed to an int32 — the inputs the
// decoders used to disagree on, or agree wrongly on.
func craftedTxns() []struct {
	name string
	txn  []byte
} {
	return []struct {
		name string
		txn  []byte
	}{
		{"first item 2^32-1 narrows to -1", uvarints(0, 1, 1<<32-1)},
		{"gap 2^32 narrows to 0, {3 3}", uvarints(0, 2, 3, 1<<32)},
		{"gap 2^32-2 narrows to -2, {5 3}", uvarints(0, 2, 5, 1<<32-2)},
		{"ID delta 2^63 turns the ID negative", uvarints(1<<63, 1, 4)},
	}
}

// hugeCountFile is a 15-byte file whose header claims 2^33 transactions.
func hugeCountFile() []byte { return binaryFile(10, 1<<33, uvarints(0, 2, 1, 2)) }

// writeTemp writes raw to a fresh file and returns its path.
func writeTemp(t *testing.T, raw []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.bin")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCraftedItemsRejectedByEveryDoor: an item integer is checked before it
// is narrowed, so none of the crafted encodings yields a transaction from
// any decoder — a resident read, a streaming open, a block decode (the
// store's CRC-framed door is TestCraftedBlockRejected in txstore).
func TestCraftedItemsRejectedByEveryDoor(t *testing.T) {
	for _, c := range craftedTxns() {
		name, txn := c.name, c.txn
		file := binaryFile(10, 1, txn)
		if d, err := readBinary(bytes.NewReader(file)); err == nil {
			t.Errorf("%s: readBinary accepted %v", name, d.Transactions)
		}
		if d, err := ReadAuto(bytes.NewReader(file)); err == nil {
			t.Errorf("%s: ReadAuto accepted %v", name, d.Transactions)
		}
		if _, err := OpenFile(writeTemp(t, file)); err == nil {
			t.Errorf("%s: OpenFile accepted the file", name)
		}
		if id, items, _, err := DecodeTransaction(txn, 0, 10, nil); err == nil {
			t.Errorf("%s: DecodeTransaction returned ID %d, items %v", name, id, items)
		}
	}
	// A vocabulary an Item cannot index is refused at the header.
	wide := binaryFile(1<<31, 0)
	if _, err := readBinary(bytes.NewReader(wide)); err == nil {
		t.Error("readBinary accepted numItems 2^31")
	}
	if _, err := OpenFile(writeTemp(t, wide)); err == nil {
		t.Error("OpenFile accepted numItems 2^31")
	}
}

// TestHeaderCannotSizeAllocation: the header's transaction count says how
// far to read, not how much to allocate.  A 15-byte file claiming 2^33
// transactions fails at its first missing one having allocated next to
// nothing — not a 256 GiB make.
func TestHeaderCannotSizeAllocation(t *testing.T) {
	file := hugeCountFile()
	if len(file) != 15 {
		t.Fatalf("fixture is %d bytes, want 15", len(file))
	}
	for name, read := range map[string]func(io.Reader) (*Dataset, error){"readBinary": readBinary, "ReadAuto": ReadAuto} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := read(bytes.NewReader(file))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s accepted a file with one of its 2^33 transactions", name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%s allocated %d bytes rejecting a 15-byte file", name, got)
		}
	}
	if _, err := OpenFile(writeTemp(t, file)); err == nil {
		t.Error("OpenFile accepted the file")
	}
}
