package itemset

import (
	"bytes"
	"testing"
)

// The fuzz targets assert that hostile inputs never panic the parsers and
// that anything accepted round-trips cleanly.  `go test` runs the seed
// corpus; `go test -fuzz=FuzzReadBinary ./internal/itemset` explores.

func FuzzReadDataset(f *testing.F) {
	f.Add([]byte("1 2 3\n4 5\n"))
	f.Add([]byte("# comment\n\n7\n"))
	f.Add([]byte("999999999 1\n"))
	f.Add([]byte("x y z\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, in []byte) {
		d, err := readText(bytes.NewReader(in))
		if err != nil {
			return
		}
		// Accepted datasets are well-formed: sorted itemsets, sane counts.
		for _, tx := range d.Transactions {
			if !tx.Items.Valid() {
				t.Fatalf("accepted unsorted transaction %v", tx.Items)
			}
		}
		var buf bytes.Buffer
		if err := Write(&buf, d); err != nil {
			t.Fatalf("rewriting accepted dataset: %v", err)
		}
		back, err := readText(&buf)
		if err != nil {
			t.Fatalf("re-reading rewritten dataset: %v", err)
		}
		if back.Len() != d.Len() {
			t.Fatalf("round trip changed size: %d vs %d", back.Len(), d.Len())
		}
	})
}

func FuzzReadBinary(f *testing.F) {
	// Seed with a valid encoding and assorted corruptions.
	var valid bytes.Buffer
	_ = WriteBinary(&valid, sample())
	f.Add(valid.Bytes())
	f.Add([]byte("PAPD\x01"))
	f.Add([]byte("PAPD\x01\x05\x02\x00\x01\x05"))
	f.Add([]byte("JUNK"))
	f.Add([]byte{})
	for _, c := range craftedTxns() {
		f.Add(binaryFile(10, 1, c.txn))
	}
	f.Add(hugeCountFile())
	f.Fuzz(func(t *testing.T, in []byte) {
		d, err := readBinary(bytes.NewReader(in))
		if err != nil {
			return
		}
		for _, tx := range d.Transactions {
			if !tx.Items.Valid() {
				t.Fatalf("accepted unsorted transaction %v", tx.Items)
			}
			for _, it := range tx.Items {
				if it < 0 || int(it) >= d.NumItems {
					t.Fatalf("accepted out-of-vocabulary item %d (numItems %d)", it, d.NumItems)
				}
			}
		}
	})
}

func FuzzReadAuto(f *testing.F) {
	var valid bytes.Buffer
	_ = WriteBinary(&valid, sample())
	f.Add(valid.Bytes())
	f.Add([]byte("1 2 3\n"))
	f.Add([]byte("PAP"))
	f.Fuzz(func(t *testing.T, in []byte) {
		_, _ = ReadAuto(bytes.NewReader(in)) // must not panic
	})
}
