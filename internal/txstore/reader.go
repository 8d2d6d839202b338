package txstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"os"

	"parapriori/internal/itemset"
)

// BlockReader streams one partition file block by block.  It reads and
// decodes through a readBufs borrowed from its Store at open and handed back
// at Close, so the buffers outlive the reader: once a Store's buffers have
// grown to fit its blocks, opening, draining and closing any number of
// partitions, pass after pass, allocates nothing on the read path.
//
// With reuse enabled the returned transactions and their item slices live in
// those buffers, so a block is only valid until the next Next or Close on
// this reader — after Close the memory may already belong to another reader.
// With reuse disabled only the file buffer and the payload buffer are
// recycled; every decoded block is freshly allocated, sized exactly, and may
// outlive the reader (the ring-shift path hands blocks to other processors).
type BlockReader struct {
	store *Store
	bufs  *readBufs
	path  string
	file  *os.File
	num   int // numItems from the partition header
	part  int
	block int   // index of the block Next will read
	off   int64 // absolute file offset of the next unread frame
	size  int64 // partition file size the manifest promises
	prev  int64
	reuse bool

	stats      ReaderStats
	onCRCRetry func(block, attempt int) // test seam: called per survived checksum failure
}

// readBufs is the reader state worth keeping between opens: the file buffer,
// the verified payload of the current block, and (reuse mode) the block
// decoded from it.  A Store keeps a free list of them — see Store.takeBufs.
type readBufs struct {
	br      *bufio.Reader
	payload []byte
	txns    []itemset.Transaction
	items   []itemset.Item
}

// headroom is the capacity a recycled buffer gets when it must grow to hold
// n elements: an eighth over, so a store's near-equal blocks settle on one
// allocation instead of one per new maximum.
func headroom(n int) int { return n + n/8 }

// maxCRCRetries is how many times a failed block checksum is re-read from
// disk before the reader gives up with a CorruptError.  A transient fault —
// a bit flipped on the wire between the page cache and us — disappears on
// re-read; real on-disk damage fails identically every time.
const maxCRCRetries = 2

// ReaderStats counts the work one partition reader did: the read-path
// telemetry the mining Report surfaces per pass.
type ReaderStats struct {
	// Partitions is the number of partition files opened.
	Partitions int `json:"partitions"`
	// Blocks and Bytes count verified blocks and the on-disk bytes consumed
	// (framing included, header excluded).
	Blocks int64 `json:"blocks"`
	Bytes  int64 `json:"bytes"`
	// CRCRetries counts checksum failures survived by re-reading: each one
	// is a verification that failed and then succeeded on a later attempt.
	CRCRetries int64 `json:"crc_retries"`
}

// Stats returns what the reader has done so far: this partition (counted as
// one), the blocks and bytes verified, and the checksum failures survived.
func (r *BlockReader) Stats() ReaderStats {
	st := r.stats
	st.Partitions = 1
	return st
}

func (r *BlockReader) readHeader(numItems int) error {
	br := r.bufs.br
	var magic [5]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return &TruncatedError{File: r.path, Block: -1}
	}
	if string(magic[:4]) != partMagic {
		return &CorruptError{File: r.path, Block: -1, Reason: fmt.Sprintf("bad magic %q", magic[:4])}
	}
	if magic[4] != partVersion {
		return &CorruptError{File: r.path, Block: -1, Reason: fmt.Sprintf("unsupported version %d", magic[4])}
	}
	idx, err := binary.ReadUvarint(br)
	if err != nil {
		return &TruncatedError{File: r.path, Block: -1}
	}
	if int(idx) != r.part {
		return &CorruptError{File: r.path, Block: -1, Reason: fmt.Sprintf("partition index %d, expected %d", idx, r.part)}
	}
	num, err := binary.ReadUvarint(br)
	if err != nil {
		return &TruncatedError{File: r.path, Block: -1}
	}
	if num == 0 || num > math.MaxInt32 { // an Item is an int32; DecodeTransaction relies on it
		return &CorruptError{File: r.path, Block: -1, Reason: fmt.Sprintf("implausible numItems %d", num)}
	}
	if numItems > 0 && int(num) != numItems {
		return &CorruptError{File: r.path, Block: -1, Reason: fmt.Sprintf("numItems %d, manifest says %d", num, numItems)}
	}
	r.num = int(num)
	r.off = int64(5 + uvarintLen(idx) + uvarintLen(num))
	return nil
}

// Next reads, verifies and decodes the next block.  It returns the block's
// transactions, the items they hold, and its on-disk size in bytes (framing
// included), or io.EOF after the last block.  Framing that outruns the file yields a
// *TruncatedError; a malformed payload yields a *CorruptError.  A failed
// checksum is re-read from disk up to maxCRCRetries times first — transient
// corruption between the disk and us heals on re-read and is counted in
// Stats().CRCRetries; persistent damage yields the *CorruptError.
func (r *BlockReader) Next() (txns []itemset.Transaction, items, diskBytes int, err error) {
	payload, ntxns, diskBytes, survived, err := r.frame()
	if err != nil {
		return nil, 0, 0, err
	}
	txns, items, err = r.decodeBlock(payload, ntxns)
	if err != nil {
		return nil, 0, 0, err
	}
	r.advance(diskBytes, survived)
	return txns, items, diskBytes, nil
}

// Skim reads and verifies the next block as Next does — the same retries,
// seams, typed errors and Stats — without decoding it.  It returns the
// block's transaction count, the items they hold and its on-disk size, or
// io.EOF after the last block.  The item count is skimCount's: for every
// payload Next decodes it equals Next's, and a payload Next would refuse is
// not detected here, so a caller checks the totals it skims against a scan
// it decoded.  Transaction IDs are deltas, so a reader that skims a block
// decodes none after it.
func (r *BlockReader) Skim() (ntxns, items, diskBytes int, err error) {
	payload, ntxns, diskBytes, survived, err := r.frame()
	if err != nil {
		return 0, 0, 0, err
	}
	items = skimCount(payload, ntxns)
	r.advance(diskBytes, survived)
	return ntxns, items, diskBytes, nil
}

// frame reads and verifies the next block frame for Next and Skim, re-reading
// a failed checksum up to maxCRCRetries times.  It returns the verified
// payload, its transaction count, its on-disk size and the checksum failures
// survived, or io.EOF at clean end of file.
func (r *BlockReader) frame() (payload []byte, ntxns, diskBytes int, survived int64, err error) {
	if r.store.poison != nil {
		r.store.poison(r.bufs)
	}
	payload, ntxns, diskBytes, err = r.readFrame()
	for attempt := 1; err != nil; attempt++ {
		ce, crc := err.(*crcError)
		if !crc {
			return nil, 0, 0, 0, err
		}
		if attempt > maxCRCRetries {
			return nil, 0, 0, 0, &CorruptError{File: r.path, Block: r.block, Reason: ce.reason}
		}
		if r.onCRCRetry != nil {
			r.onCRCRetry(r.block, attempt)
		}
		if _, serr := r.file.Seek(r.off, io.SeekStart); serr != nil {
			return nil, 0, 0, 0, &CorruptError{File: r.path, Block: r.block, Reason: ce.reason + "; reseek failed: " + serr.Error()}
		}
		r.bufs.br.Reset(r.file)
		survived++
		payload, ntxns, diskBytes, err = r.readFrame()
	}
	if diskBytes == 0 { // clean end of file
		return nil, 0, 0, 0, io.EOF
	}
	return payload, ntxns, diskBytes, survived, nil
}

// advance moves the reader past a block it has consumed.
func (r *BlockReader) advance(diskBytes int, survived int64) {
	r.block++
	r.off += int64(diskBytes)
	r.stats.Blocks++
	r.stats.Bytes += int64(diskBytes)
	r.stats.CRCRetries += survived
}

// crcError marks a failed block checksum inside readFrame — the one failure
// Next retries instead of surfacing.
type crcError struct{ reason string }

func (e *crcError) Error() string { return e.reason }

// readFrame reads and verifies one block frame into the recycled payload
// buffer.  At clean end of file it returns all zero values and a nil error
// (diskBytes == 0 marks it); a checksum mismatch returns a *crcError so Next
// can seek back and retry.
func (r *BlockReader) readFrame() ([]byte, int, int, error) {
	br := r.bufs.br
	ntxns, err := binary.ReadUvarint(br)
	if err != nil {
		if err == io.EOF {
			return nil, 0, 0, nil
		}
		return nil, 0, 0, &TruncatedError{File: r.path, Block: r.block}
	}
	payloadLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, 0, 0, &TruncatedError{File: r.path, Block: r.block}
	}
	if ntxns == 0 || ntxns > 1<<31 || payloadLen > 1<<31 || payloadLen < ntxns {
		return nil, 0, 0, &CorruptError{File: r.path, Block: r.block, Reason: fmt.Sprintf("implausible frame (%d transactions, %d payload bytes)", ntxns, payloadLen)}
	}
	// The length is trusted for an allocation before the checksum can vouch
	// for it, so hold it to what the manifest says the file has left.
	frame := uvarintLen(ntxns) + uvarintLen(payloadLen) + 4
	if left := r.size - r.off - int64(frame); left < 0 || payloadLen > uint64(left) {
		return nil, 0, 0, &CorruptError{File: r.path, Block: r.block, Reason: fmt.Sprintf("frame of %d payload bytes outruns the %d-byte partition", payloadLen, r.size)}
	}
	crc, err := br.Peek(4) // in place: a local array handed to io.ReadFull escapes
	if err != nil {
		return nil, 0, 0, &TruncatedError{File: r.path, Block: r.block}
	}
	want := binary.LittleEndian.Uint32(crc)
	br.Discard(4)
	if cap(r.bufs.payload) < int(payloadLen) {
		r.bufs.payload = make([]byte, headroom(int(payloadLen)))
	}
	payload := r.bufs.payload[:payloadLen]
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, 0, 0, &TruncatedError{File: r.path, Block: r.block}
	}
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, 0, 0, &crcError{reason: fmt.Sprintf("checksum mismatch (got %08x, want %08x)", got, want)}
	}
	return payload, int(ntxns), frame + int(payloadLen), nil
}

// decodeBlock decodes a verified payload into transactions and returns them
// with the number of items they hold, the length of the item arena they were
// decoded into.  This is the out-of-core read path's inner loop.  A payload that decodes holds one
// varint per item plus two per transaction (ID delta, item count), each at
// least a byte, so it has at most len(payload)-2*ntxns items: with reuse
// enabled the recycled arena is grown to that bound before the loop — once,
// on a cold reader — and nothing allocates per block in steady state.
// Without reuse the block escapes to a peer and is sized exactly, from the
// payload's varint terminators.  Either way the arena never moves under a
// payload that decodes.
//
//checkinv:hotpath
func (r *BlockReader) decodeBlock(payload []byte, ntxns int) ([]itemset.Transaction, int, error) {
	b := r.bufs
	if r.reuse {
		if cap(b.txns) < ntxns {
			b.txns = make([]itemset.Transaction, 0, headroom(ntxns))
		}
		if bound := len(payload) - 2*ntxns; cap(b.items) < bound {
			b.items = make([]itemset.Item, 0, headroom(bound))
		}
	}
	txns, items := b.txns[:0], b.items[:0]
	if !r.reuse {
		txns = make([]itemset.Transaction, 0, ntxns)
		items = make([]itemset.Item, 0, max(skimCount(payload, ntxns), 0))
	}
	off := 0
	prev := r.prev
	for i := 0; i < ntxns; i++ {
		id, out, n, err := itemset.DecodeTransaction(payload[off:], prev, r.num, items)
		if err != nil {
			return nil, 0, r.corrupt(err)
		}
		txns = append(txns, itemset.Transaction{ID: id, Items: itemset.Itemset(out[len(items):len(out):len(out)])})
		items = out
		off += n
		prev = id
	}
	if off != len(payload) {
		return nil, 0, r.trailing(len(payload) - off)
	}
	r.prev = prev
	return txns, len(items), nil
}

// skimCount is the item count of a payload of ntxns transactions that
// decodes: each transaction is an ID delta, an item count and one varint per
// item, so the items are the payload's varints less two a transaction.
func skimCount(payload []byte, ntxns int) int {
	return varintCount(payload) - 2*ntxns
}

// varintCount counts the varints a well-formed payload holds: its bytes with
// the high bit clear.
func varintCount(payload []byte) int {
	n := 0
	for ; len(payload) >= 8; payload = payload[8:] {
		n += bits.OnesCount64(^binary.LittleEndian.Uint64(payload) & 0x8080808080808080)
	}
	for _, b := range payload {
		n += int(b>>7) ^ 1
	}
	return n
}

// corrupt wraps a payload decode failure (cold path, hoisted out of the
// decode loop for the hot-path allocation discipline).
func (r *BlockReader) corrupt(err error) error {
	return &CorruptError{File: r.path, Block: r.block, Reason: err.Error()}
}

func (r *BlockReader) trailing(n int) error {
	return &CorruptError{File: r.path, Block: r.block, Reason: fmt.Sprintf("%d trailing payload bytes", n)}
}

// Close releases the underlying file and hands the reader's buffers back to
// the store; in reuse mode the last block returned by Next dies with it.
func (r *BlockReader) Close() error {
	if r.file == nil {
		return nil
	}
	if r.store.poison != nil {
		r.store.poison(r.bufs)
	}
	r.store.putBufs(r.bufs)
	r.bufs = nil
	err := r.file.Close()
	r.file = nil
	return err
}

// uvarintLen returns the encoded size of v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
