package txstore

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"parapriori/internal/datagen"
	"parapriori/internal/itemset"
)

func testDataset(t *testing.T, n int) *itemset.Dataset {
	t.Helper()
	p := datagen.Defaults()
	p.NumTransactions = n
	p.NumItems = 200
	p.AvgTxnLen = 8
	p.Seed = 7
	d, err := datagen.Generate(p)
	if err != nil {
		t.Fatalf("datagen: %v", err)
	}
	return d
}

// byID flattens a source into ID-sorted transactions (round-robin spilling
// interleaves stream order across partitions).
func byID(t *testing.T, src itemset.Source) []itemset.Transaction {
	t.Helper()
	d, err := itemset.Materialize(src)
	if err != nil {
		t.Fatalf("materialize: %v", err)
	}
	out := append([]itemset.Transaction(nil), d.Transactions...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func sameTxns(t *testing.T, want, got []itemset.Transaction) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("transaction count: got %d, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i].ID != got[i].ID || !want[i].Items.Equal(got[i].Items) {
			t.Fatalf("transaction %d: got %d %v, want %d %v", i, got[i].ID, got[i].Items, want[i].ID, want[i].Items)
		}
	}
}

func TestRoundTripRoundRobin(t *testing.T) {
	d := testDataset(t, 500)
	dir := t.TempDir()
	// A tiny block size forces many per-partition blocks, so transactions
	// land on every block boundary the format has.
	man, err := Spill(dir, d, Options{Partitions: 4, BlockBytes: 256})
	if err != nil {
		t.Fatalf("spill: %v", err)
	}
	if man.Transactions != d.Len() {
		t.Fatalf("manifest transactions %d, want %d", man.Transactions, d.Len())
	}
	if len(man.Partitions) != 4 {
		t.Fatalf("partitions %d, want 4", len(man.Partitions))
	}
	if man.ModeledBytes != int64(d.Bytes()) {
		t.Fatalf("modeled bytes %d, want %d", man.ModeledBytes, d.Bytes())
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if info := s.Info(); info != d.Info() {
		t.Fatalf("info mismatch: store %+v, dataset %+v", info, d.Info())
	}
	sameTxns(t, d.Transactions, byID(t, s))
}

func TestRoundTripSizeRolled(t *testing.T) {
	defer func(b int64) { maxPartBytes = b }(maxPartBytes)
	maxPartBytes = 2048
	d := testDataset(t, 300)
	dir := t.TempDir()
	man, err := Spill(dir, d, Options{BlockBytes: 512})
	if err != nil {
		t.Fatalf("spill: %v", err)
	}
	if len(man.Partitions) < 2 {
		t.Fatalf("expected size-rolled spill to produce multiple partitions, got %d", len(man.Partitions))
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	// Size-rolled partitions are contiguous: streaming them in order
	// reproduces the original stream order exactly.
	var got []itemset.Transaction
	err = s.Blocks(func(blk []itemset.Transaction) error {
		for _, tx := range blk {
			got = append(got, itemset.Transaction{ID: tx.ID, Items: slices.Clone(tx.Items)})
		}
		return nil
	})
	if err != nil {
		t.Fatalf("blocks: %v", err)
	}
	sameTxns(t, d.Transactions, got)
}

func TestManifestRanges(t *testing.T) {
	d := testDataset(t, 200)
	dir := t.TempDir()
	man, err := Spill(dir, d, Options{Partitions: 3, BlockBytes: 1024})
	if err != nil {
		t.Fatalf("spill: %v", err)
	}
	for i, p := range man.Partitions {
		if p.Transactions == 0 {
			continue
		}
		if p.MinItem < 0 || p.MaxItem >= man.NumItems || p.MinItem > p.MaxItem {
			t.Errorf("partition %d: bad item range [%d,%d]", i, p.MinItem, p.MaxItem)
		}
		if p.MinID < 0 || p.MaxID < p.MinID {
			t.Errorf("partition %d: bad ID range [%d,%d]", i, p.MinID, p.MaxID)
		}
	}
}

func TestEmptyPartitions(t *testing.T) {
	d := testDataset(t, 3)
	dir := t.TempDir()
	man, err := Spill(dir, d, Options{Partitions: 5})
	if err != nil {
		t.Fatalf("spill: %v", err)
	}
	if len(man.Partitions) != 5 {
		t.Fatalf("partitions %d, want 5", len(man.Partitions))
	}
	for i := 3; i < 5; i++ {
		p := man.Partitions[i]
		if p.Transactions != 0 || p.Blocks != 0 || p.MinItem != -1 || p.MaxID != -1 {
			t.Fatalf("partition %d should be empty: %+v", i, p)
		}
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	sameTxns(t, d.Transactions, byID(t, s))
}

func TestAppendOrderEnforced(t *testing.T) {
	dir := t.TempDir()
	w, err := newWriter(dir, 10, Options{Partitions: 1})
	if err != nil {
		t.Fatalf("new writer: %v", err)
	}
	if err := w.add(itemset.Transaction{ID: 5, Items: itemset.New(1, 2)}); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := w.add(itemset.Transaction{ID: 4, Items: itemset.New(1)}); err == nil {
		t.Fatal("expected decreasing-ID append to fail")
	}
	if err := w.add(itemset.Transaction{ID: 6, Items: itemset.Itemset{2, 1}}); err == nil {
		t.Fatal("expected unsorted-items append to fail")
	}
	if err := w.add(itemset.Transaction{ID: 6, Items: itemset.New(2, 15)}); err == nil {
		t.Fatal("expected out-of-vocabulary append to fail")
	}
}

// TestRefusedAppendLeavesNoBytes: an item outside the vocabulary, at either
// end of the transaction, is refused with the typed error the miners' first
// passes return and before anything is encoded — a writer that carries on
// closes into a store whose scan is exactly the accepted transactions.
func TestRefusedAppendLeavesNoBytes(t *testing.T) {
	dir := t.TempDir()
	w, err := newWriter(dir, 10, Options{Partitions: 2, BlockBytes: 16})
	if err != nil {
		t.Fatalf("new writer: %v", err)
	}
	var accepted []itemset.Transaction
	for _, step := range []struct {
		txn    itemset.Transaction
		refuse itemset.Item // the item named by the refusal; 0 = accepted
	}{
		{txn: itemset.Transaction{ID: 0, Items: itemset.New(1, 2)}},
		{txn: itemset.Transaction{ID: 1, Items: itemset.Itemset{-5, 1, 2}}, refuse: -5},
		{txn: itemset.Transaction{ID: 1, Items: itemset.New(2, 3, 15)}, refuse: 15},
		{txn: itemset.Transaction{ID: 1, Items: itemset.Itemset{-1, 10}}, refuse: -1},
		{txn: itemset.Transaction{ID: 2, Items: itemset.New(0, 9)}},
		{txn: itemset.Transaction{ID: 3, Items: itemset.Itemset{10}}, refuse: 10},
		{txn: itemset.Transaction{ID: 3}},
		{txn: itemset.Transaction{ID: 4, Items: itemset.New(3, 4, 5)}},
	} {
		err := w.add(step.txn)
		if step.refuse == 0 {
			if err != nil {
				t.Fatalf("append %d %v: %v", step.txn.ID, step.txn.Items, err)
			}
			accepted = append(accepted, step.txn)
			continue
		}
		var re *itemset.ItemRangeError
		if !errors.As(err, &re) {
			t.Fatalf("append %d %v: got %v, want an *itemset.ItemRangeError", step.txn.ID, step.txn.Items, err)
		}
		if want := (itemset.ItemRangeError{Txn: step.txn.ID, Item: step.refuse, NumItems: 10}); *re != want {
			t.Errorf("append %d %v: got %+v, want %+v", step.txn.ID, step.txn.Items, *re, want)
		}
	}
	man, err := w.Close()
	if err != nil {
		t.Fatalf("close after refused appends: %v", err)
	}
	if man.Transactions != len(accepted) {
		t.Errorf("manifest counts %d transactions, %d were accepted", man.Transactions, len(accepted))
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	sameTxns(t, accepted, byID(t, s))
}

// drain reads partition i to the end, returning the first non-EOF error.
func drain(s *Store, i int) error {
	r, err := s.OpenPartition(i, true)
	if err != nil {
		return err
	}
	defer r.Close()
	for {
		_, _, _, err := r.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

func spillOne(t *testing.T) (string, *Store) {
	t.Helper()
	d := testDataset(t, 200)
	dir := t.TempDir()
	if _, err := Spill(dir, d, Options{Partitions: 1, BlockBytes: 512}); err != nil {
		t.Fatalf("spill: %v", err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return dir, s
}

func TestTruncatedPartitionTyped(t *testing.T) {
	dir, s := spillOne(t)
	path := filepath.Join(dir, s.Manifest().Partitions[0].File)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	// Cut mid-header, mid-frame and mid-payload; every cut must surface as
	// a *TruncatedError (never a silent short read or a panic).
	for _, cut := range []int{3, 6, len(full) / 2, len(full) - 1} {
		if cut >= len(full) {
			continue
		}
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatalf("truncate: %v", err)
		}
		err := drain(s, 0)
		var te *TruncatedError
		if !errors.As(err, &te) {
			t.Fatalf("cut at %d: got %v, want *TruncatedError", cut, err)
		}
	}
}

func TestCorruptChecksumTyped(t *testing.T) {
	dir, s := spillOne(t)
	path := filepath.Join(dir, s.Manifest().Partitions[0].File)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	// Flipping the last payload byte breaks that block's checksum.
	mut := append([]byte(nil), full...)
	mut[len(mut)-1] ^= 0xff
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	var ce *CorruptError
	if err := drain(s, 0); !errors.As(err, &ce) {
		t.Fatalf("got %v, want *CorruptError", err)
	}
}

// TestCorruptLengthTyped damages the first frame's payload-length varint.  The
// length sizes an allocation before the checksum can reject the frame, so a
// length the partition cannot hold must come back as a typed error having
// allocated next to nothing — not as a 2 GiB make (a fatal OOM under an
// address-space cap).
func TestCorruptLengthTyped(t *testing.T) {
	dir, s := spillOne(t)
	path := filepath.Join(dir, s.Manifest().Partitions[0].File)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	header := 5 + uvarintLen(0) + uvarintLen(uint64(s.Manifest().NumItems))
	ntxns, w := binary.Uvarint(full[header:])
	lenAt := header + w
	_, lw := binary.Uvarint(full[lenAt:])
	rest := full[lenAt+lw:]
	frame := func(payloadLen uint64) []byte {
		out := append([]byte(nil), full[:header]...)
		out = binary.AppendUvarint(out, ntxns)
		out = binary.AppendUvarint(out, payloadLen)
		return append(out, rest...)
	}
	flipped := append([]byte(nil), full...)
	flipped[lenAt+lw-1] ^= 0x40 // one bit: the length grows by 64<<(7*(lw-1))

	for name, mut := range map[string][]byte{
		"one flipped bit": flipped,
		"2 GiB":           frame(1 << 31),
		"whole file":      frame(uint64(len(full))),
	} {
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatalf("%s: rewrite: %v", name, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := drain(s, 0)
		runtime.ReadMemStats(&after)
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Errorf("%s: got %v, want *CorruptError", name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%s: rejecting the frame allocated %d bytes", name, got)
		}
	}
}

// TestCraftedBlockRejected puts transaction encodings whose item integers
// only look legal once narrowed to an int32 — item 2^32-1 (-1), gap 2^32
// ({3 3}), gap 2^32-2 ({5 3}) — and an ID delta that wraps the ID negative
// into a block behind a valid checksum.  The checksum vouches for the bytes,
// not for what they say: the decode must refuse each as a *CorruptError
// rather than hand a miner an item it indexes tables by.
func TestCraftedBlockRejected(t *testing.T) {
	dir, s := spillOne(t)
	path := filepath.Join(dir, s.Manifest().Partitions[0].File)
	header := append([]byte(partMagic), partVersion)
	header = binary.AppendUvarint(header, 0)
	header = binary.AppendUvarint(header, uint64(s.Manifest().NumItems))
	for _, c := range []struct {
		name string
		ints []uint64
	}{
		{"item 2^32-1", []uint64{0, 1, 1<<32 - 1}},
		{"gap 2^32", []uint64{0, 2, 3, 1 << 32}},
		{"gap 2^32-2", []uint64{0, 2, 5, 1<<32 - 2}},
		{"ID delta 2^63", []uint64{1 << 63, 1, 4}},
	} {
		name := c.name
		var payload []byte
		for _, v := range c.ints {
			payload = binary.AppendUvarint(payload, v)
		}
		file := binary.AppendUvarint(append([]byte(nil), header...), 1)
		file = binary.AppendUvarint(file, uint64(len(payload)))
		file = binary.LittleEndian.AppendUint32(file, crc32.ChecksumIEEE(payload))
		file = append(file, payload...)
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatalf("%s: rewrite: %v", name, err)
		}
		r, err := s.OpenPartition(0, true)
		if err != nil {
			t.Fatalf("%s: open: %v", name, err)
		}
		txns, _, _, err := r.Next()
		r.Close()
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Errorf("%s: got transactions %v, error %v; want *CorruptError", name, txns, err)
		}
	}
}

// TestImplausibleFrameTyped gives a block frame one implausible header field
// at a time — no transactions, more than 2^31 of them, a payload longer than
// 2^31 bytes, a payload shorter than one byte a transaction — behind a
// checksum that vouches for the one-transaction payload.  Each must be
// refused by the frame's plausibility guard itself, as a *CorruptError that
// says so, before any later check sees the frame.
func TestImplausibleFrameTyped(t *testing.T) {
	dir, s := spillOne(t)
	path := filepath.Join(dir, s.Manifest().Partitions[0].File)
	header := append([]byte(partMagic), partVersion)
	header = binary.AppendUvarint(header, 0)
	header = binary.AppendUvarint(header, uint64(s.Manifest().NumItems))
	payload := binary.AppendUvarint(nil, 0) // ID delta, 2 items: {3 4}
	for _, v := range []uint64{2, 3, 1} {
		payload = binary.AppendUvarint(payload, v)
	}
	for _, c := range []struct {
		name              string
		ntxns, payloadLen uint64
	}{
		{"no transactions", 0, uint64(len(payload))},
		{"transactions past 2^31", 1<<31 + 1, uint64(len(payload))},
		{"payload past 2^31", 1, 1<<31 + 1},
		{"payload shorter than its transactions", 1, 0},
	} {
		file := binary.AppendUvarint(append([]byte(nil), header...), c.ntxns)
		file = binary.AppendUvarint(file, c.payloadLen)
		file = binary.LittleEndian.AppendUint32(file, crc32.ChecksumIEEE(payload))
		file = append(file, payload...)
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatalf("%s: rewrite: %v", c.name, err)
		}
		err := drain(s, 0)
		var ce *CorruptError
		if !errors.As(err, &ce) || !strings.HasPrefix(ce.Reason, "implausible frame") {
			t.Errorf("%s: got %v, want the *CorruptError of an implausible frame", c.name, err)
		}
	}
}

func TestReaderStats(t *testing.T) {
	dir, s := spillOne(t)
	_ = dir
	p := s.Manifest().Partitions[0]
	r, err := s.OpenPartition(0, true)
	if err != nil {
		t.Fatalf("open partition: %v", err)
	}
	defer r.Close()
	for {
		if _, _, _, err := r.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("next: %v", err)
		}
	}
	st := r.Stats()
	if st.Partitions != 1 {
		t.Fatalf("partitions: got %d, want 1", st.Partitions)
	}
	if st.Blocks != int64(p.Blocks) {
		t.Fatalf("blocks: got %d, manifest says %d", st.Blocks, p.Blocks)
	}
	header := int64(5 + uvarintLen(0) + uvarintLen(uint64(s.Manifest().NumItems)))
	if want := p.Bytes - header; st.Bytes != want {
		t.Fatalf("bytes: got %d, want %d (file %d minus header %d)", st.Bytes, want, p.Bytes, header)
	}
	if st.CRCRetries != 0 {
		t.Fatalf("crc retries on a clean file: got %d, want 0", st.CRCRetries)
	}
}

// TestCRCRetrySurvives pins the transient-corruption path: a checksum
// failure that heals on re-read (here: the test restores the file from the
// retry seam) must be survived, counted in Stats, and yield exactly the
// bytes a clean read would have.
func TestCRCRetrySurvives(t *testing.T) {
	dir, s := spillOne(t)
	path := filepath.Join(dir, s.Manifest().Partitions[0].File)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	clean := byID(t, s)

	// Flip one byte near the middle of the file — inside some block's
	// payload — then heal it the moment the reader reports the failure.
	mut := append([]byte(nil), full...)
	mut[len(mut)/2] ^= 0xff
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatalf("corrupt: %v", err)
	}
	r, err := s.OpenPartition(0, true)
	if err != nil {
		t.Fatalf("open partition: %v", err)
	}
	defer r.Close()
	retried := 0
	r.onCRCRetry = func(block, attempt int) {
		retried++
		if err := os.WriteFile(path, full, 0o644); err != nil {
			t.Fatalf("heal: %v", err)
		}
	}
	var got []itemset.Transaction
	for {
		blk, items, _, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("next after heal: %v", err)
		}
		for _, tx := range blk {
			got = append(got, itemset.Transaction{ID: tx.ID, Items: slices.Clone(tx.Items)})
			items -= len(tx.Items)
		}
		if items != 0 {
			t.Fatalf("Next's item count is off by %d from its block's", items)
		}
	}
	if retried != 1 {
		t.Fatalf("retry seam fired %d times, want 1", retried)
	}
	if st := r.Stats(); st.CRCRetries != 1 {
		t.Fatalf("stats.CRCRetries: got %d, want 1", st.CRCRetries)
	}
	sort.Slice(got, func(i, j int) bool { return got[i].ID < got[j].ID })
	sameTxns(t, clean, got)
}

func TestOpenChecksManifest(t *testing.T) {
	dir, s := spillOne(t)
	path := filepath.Join(dir, s.Manifest().Partitions[0].File)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	var me *ManifestError
	// Size mismatch is caught at Open.
	if err := os.WriteFile(path, full[:len(full)-1], 0o644); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	if _, err := Open(dir); !errors.As(err, &me) {
		t.Fatalf("size mismatch: got %v, want *ManifestError", err)
	}
	// So is a missing partition file.
	if err := os.Remove(path); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if _, err := Open(dir); !errors.As(err, &me) {
		t.Fatalf("missing file: got %v, want *ManifestError", err)
	}
	// And an unparseable manifest.
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte("{"), 0o644); err != nil {
		t.Fatalf("rewrite manifest: %v", err)
	}
	if _, err := Open(dir); !errors.As(err, &me) {
		t.Fatalf("bad manifest: got %v, want *ManifestError", err)
	}
}

// TestReaderSteadyStateAllocs pins where the read path may allocate: on a
// cold Store handle only.  Reader state outlives partitions and passes, so
// after one full drain has sized the buffers a second drain — every
// partition opened, read to the end and closed again — allocates nothing
// while reading, and opening costs an os.File and a BlockReader, not
// buffers.
func TestReaderSteadyStateAllocs(t *testing.T) {
	d := testDataset(t, 2000)
	dir := t.TempDir()
	if _, err := Spill(dir, d, Options{Partitions: 6, BlockBytes: 1024}); err != nil {
		t.Fatalf("spill: %v", err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	nop := func([]itemset.Transaction) error { return nil }
	if err := s.Blocks(nop); err != nil {
		t.Fatalf("first drain: %v", err)
	}

	var reading, blocks uint64
	var before, after runtime.MemStats
	for i := 0; i < s.Partitions(); i++ {
		r, err := s.OpenPartition(i, true)
		if err != nil {
			t.Fatalf("open partition %d: %v", i, err)
		}
		runtime.ReadMemStats(&before)
		for {
			_, _, _, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("next: %v", err)
			}
			blocks++
		}
		runtime.ReadMemStats(&after)
		reading += after.Mallocs - before.Mallocs
		if err := r.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}
	if blocks < 2*uint64(s.Partitions()) {
		t.Fatalf("only %d blocks over %d partitions: nothing steady to measure", blocks, s.Partitions())
	}
	if reading > 0 {
		t.Errorf("second drain allocated %d times while reading %d blocks, want 0", reading, blocks)
	}

	runtime.ReadMemStats(&before)
	if err := s.Blocks(nop); err != nil {
		t.Fatalf("third drain: %v", err)
	}
	runtime.ReadMemStats(&after)
	// One cold reader is a 64 KB file buffer before it has read a byte.
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(s.Partitions())*2048; got > limit {
		t.Errorf("a warm drain of %d partitions allocated %d bytes, want at most %d (opens only)", s.Partitions(), got, limit)
	}
}

// TestRingArenaSizedExactly pins the no-reuse path's arena arithmetic: a
// block's item count is its payload's varint terminators less two per
// transaction, one-byte and multi-byte varints alike.
func TestRingArenaSizedExactly(t *testing.T) {
	d := &itemset.Dataset{NumItems: 1 << 20}
	for i := 0; i < 400; i++ {
		d.Transactions = append(d.Transactions, itemset.Transaction{
			ID:    int64(i) * 1000,
			Items: itemset.New(itemset.Item(i%7), itemset.Item(200+i), itemset.Item(70000+i*300)),
		})
	}
	dir := t.TempDir()
	if _, err := Spill(dir, d, Options{Partitions: 1, BlockBytes: 1001}); err != nil {
		t.Fatalf("spill: %v", err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	r, err := s.OpenPartition(0, false)
	if err != nil {
		t.Fatalf("open partition: %v", err)
	}
	defer r.Close()
	for block := 0; ; block++ {
		payload, ntxns, diskBytes, err := r.readFrame()
		if err != nil {
			t.Fatalf("block %d: %v", block, err)
		}
		if diskBytes == 0 {
			if block < 2 {
				t.Fatalf("only %d blocks", block)
			}
			return
		}
		txns, decoded, err := r.decodeBlock(payload, ntxns)
		if err != nil {
			t.Fatalf("block %d: %v", block, err)
		}
		items := 0
		for _, tx := range txns {
			items += len(tx.Items)
		}
		if got := varintCount(payload) - 2*ntxns; got != items {
			t.Fatalf("block %d: arena sized for %d items, block holds %d", block, got, items)
		}
		if decoded != items {
			t.Fatalf("block %d: decoder reports %d items, block holds %d", block, decoded, items)
		}
		r.off += int64(diskBytes)
	}
}

func FuzzManifest(f *testing.F) {
	d := &itemset.Dataset{NumItems: 5, Transactions: []itemset.Transaction{
		{ID: 0, Items: itemset.New(0, 2)},
		{ID: 1, Items: itemset.New(1, 3, 4)},
	}}
	dir := f.TempDir()
	man, err := Spill(dir, d, Options{Partitions: 2})
	if err != nil {
		f.Fatalf("spill: %v", err)
	}
	valid, err := json.Marshal(man)
	if err != nil {
		f.Fatalf("marshal: %v", err)
	}
	f.Add(valid)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1,"num_items":3,"transactions":0,"block_bytes":1,"modeled_bytes":0,"partitions":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseManifest(data)
		if err != nil {
			var me *ManifestError
			if !errors.As(err, &me) {
				t.Fatalf("non-typed parse error: %v", err)
			}
			return
		}
		// An accepted manifest must survive a marshal/reparse round trip.
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("remarshal: %v", err)
		}
		if _, err := parseManifest(out); err != nil {
			t.Fatalf("reparse of accepted manifest failed: %v", err)
		}
	})
}
