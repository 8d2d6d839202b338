package txstore

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"parapriori/internal/itemset"
)

// readStep is one reader call's outcome: the block's transactions, items
// and on-disk size, or the error, and the reader's Stats after it.
type readStep struct {
	txns, items, diskBytes int
	err                    string
	stats                  ReaderStats
}

// readAll drains partition i with Next, or with Skim, recording every step
// up to io.EOF or the first error.  heal, when set, is the reader's
// checksum-retry seam.
func readAll(t *testing.T, s *Store, i int, skim bool, heal func(block, attempt int)) []readStep {
	t.Helper()
	r, err := s.OpenPartition(i, true)
	if err != nil { // the header is the opener's, and both read it alike
		return []readStep{{err: err.Error()}}
	}
	defer r.Close()
	r.onCRCRetry = heal
	var steps []readStep
	for {
		var st readStep
		var err error
		if skim {
			st.txns, st.items, st.diskBytes, err = r.Skim()
		} else {
			var blk []itemset.Transaction
			blk, st.items, st.diskBytes, err = r.Next()
			st.txns = len(blk)
		}
		if err != nil {
			st.err = err.Error()
		}
		st.stats = r.Stats()
		steps = append(steps, st)
		if err != nil {
			if err != io.EOF {
				var ce *CorruptError
				var te *TruncatedError
				if !errors.As(err, &ce) && !errors.As(err, &te) {
					t.Fatalf("skim=%v: untyped error %T: %v", skim, err, err)
				}
			}
			return steps
		}
	}
}

// sameSteps requires Skim to read a partition exactly as Next does: the same
// blocks with the same transaction and item counts and sizes, the same
// typed error at the same block, and the same Stats after every call.
func sameSteps(t *testing.T, name string, s *Store, i int, heal func() func(block, attempt int)) {
	t.Helper()
	var next, skim []readStep
	if heal != nil {
		next, skim = readAll(t, s, i, false, heal()), readAll(t, s, i, true, heal())
	} else {
		next, skim = readAll(t, s, i, false, nil), readAll(t, s, i, true, nil)
	}
	if !reflect.DeepEqual(skim, next) {
		t.Fatalf("%s: Skim read\n%+v\nNext read\n%+v", name, skim, next)
	}
}

// TestSkimReadsAsNext holds Skim to Next on clean partitions of several
// block sizes: same counts, sizes, end of file and Stats.
func TestSkimReadsAsNext(t *testing.T) {
	d := testDataset(t, 2000)
	for _, blockBytes := range []int{64, 1001, 1 << 14} {
		dir := t.TempDir()
		if _, err := Spill(dir, d, Options{Partitions: 3, BlockBytes: blockBytes}); err != nil {
			t.Fatalf("spill: %v", err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		for i := 0; i < s.Partitions(); i++ {
			sameSteps(t, "clean", s, i, nil)
		}
	}
}

// TestSkimFailsAsNext gives Skim every frame failure Next reports — cuts
// mid-header, mid-frame and mid-payload, each implausible frame field, a
// payload that outruns the partition, a checksum that fails for good and
// one that heals on re-read — and requires the same typed error, at the
// same block, with the same Stats; and the poison seam to fire as often.
func TestSkimFailsAsNext(t *testing.T) {
	dir, s := spillOne(t)
	path := filepath.Join(dir, s.Manifest().Partitions[0].File)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	write := func(b []byte) {
		t.Helper()
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatalf("rewrite: %v", err)
		}
	}
	for _, cut := range []int{3, 6, len(full) / 2, len(full) - 1} {
		write(full[:cut])
		sameSteps(t, "truncated", s, 0, nil)
	}

	header := append([]byte(partMagic), partVersion)
	header = binary.AppendUvarint(header, 0)
	header = binary.AppendUvarint(header, uint64(s.Manifest().NumItems))
	payload := binary.AppendUvarint(nil, 0)
	for _, v := range []uint64{2, 3, 1} {
		payload = binary.AppendUvarint(payload, v)
	}
	for _, c := range []struct{ ntxns, payloadLen uint64 }{
		{0, uint64(len(payload))}, {1<<31 + 1, uint64(len(payload))}, {1, 1<<31 + 1}, {1, 0}, {1, 1 << 20},
	} {
		file := binary.AppendUvarint(append([]byte(nil), header...), c.ntxns)
		file = binary.AppendUvarint(file, c.payloadLen)
		file = binary.LittleEndian.AppendUint32(file, crc32.ChecksumIEEE(payload))
		write(append(file, payload...))
		sameSteps(t, "implausible", s, 0, nil)
	}

	mut := append([]byte(nil), full...)
	mut[len(mut)/2] ^= 0xff
	write(mut)
	sameSteps(t, "persistent checksum", s, 0, nil)
	healed := 0
	sameSteps(t, "healed checksum", s, 0, func() func(block, attempt int) {
		write(mut)
		return func(block, attempt int) {
			healed++
			write(full)
		}
	})
	if healed != 2 {
		t.Fatalf("the retry seam fired %d times over the two reads, want 2", healed)
	}
	steps := readAll(t, s, 0, true, nil)
	if st := steps[len(steps)-1].stats; st.CRCRetries != 0 {
		t.Fatalf("a clean reread reports %d checksum retries", st.CRCRetries)
	}

	write(full)
	poisoned := map[bool]int{}
	for _, skim := range []bool{false, true} {
		s.poison = func(*readBufs) { poisoned[skim]++ }
		readAll(t, s, 0, skim, nil)
	}
	s.poison = nil
	if poisoned[true] == 0 || poisoned[true] != poisoned[false] {
		t.Fatalf("the poison seam fired %d times under Skim, %d under Next", poisoned[true], poisoned[false])
	}
}

// FuzzSkimCountMatchesDecode holds Skim's item count to the decoder's on
// every payload the decoder accepts, in both of its arena modes: the
// payload's varints less two a transaction is the number of items the
// transactions hold.
func FuzzSkimCountMatchesDecode(f *testing.F) {
	d := &itemset.Dataset{NumItems: 1 << 20}
	for i := 0; i < 60; i++ {
		d.Transactions = append(d.Transactions, itemset.Transaction{
			ID:    int64(i) * 997,
			Items: itemset.New(itemset.Item(i%7), itemset.Item(200+i), itemset.Item(70000+i*300)),
		})
	}
	dir := f.TempDir()
	if _, err := Spill(dir, d, Options{Partitions: 1, BlockBytes: 300}); err != nil {
		f.Fatalf("spill: %v", err)
	}
	s, err := Open(dir)
	if err != nil {
		f.Fatalf("open: %v", err)
	}
	r, err := s.OpenPartition(0, true)
	if err != nil {
		f.Fatalf("open partition: %v", err)
	}
	for {
		payload, ntxns, diskBytes, err := r.readFrame()
		if err != nil {
			f.Fatalf("seed frame: %v", err)
		}
		if diskBytes == 0 {
			break
		}
		f.Add(append([]byte(nil), payload...), uint16(ntxns), uint32(d.NumItems))
		r.off += int64(diskBytes)
	}
	r.Close()
	f.Add([]byte{0, 2, 3, 1}, uint16(1), uint32(10))
	f.Add([]byte{0x80, 0, 0x81, 0, 3, 0x80, 0x80, 0}, uint16(1), uint32(1<<20))
	f.Fuzz(func(t *testing.T, payload []byte, ntxns uint16, numItems uint32) {
		if ntxns == 0 {
			return
		}
		for _, reuse := range []bool{true, false} {
			r := &BlockReader{bufs: &readBufs{}, num: int(numItems%(1<<21)) + 1, reuse: reuse}
			txns, items, err := r.decodeBlock(payload, int(ntxns))
			if err != nil {
				continue
			}
			if len(txns) != int(ntxns) {
				t.Fatalf("decoded %d transactions of %d", len(txns), ntxns)
			}
			if got := skimCount(payload, int(ntxns)); got != items {
				t.Fatalf("reuse=%v: Skim counts %d items, the decoder %d", reuse, got, items)
			}
		}
	})
}
