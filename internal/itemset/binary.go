package itemset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// Binary dataset format.  Basket text files are convenient but large and
// slow to parse; the experiments move datasets around enough that a compact
// format is worth having.  Layout (all integers unsigned varints unless
// noted):
//
//	magic "PAPD" (4 bytes) | version (1 byte, = 1)
//	numItems | numTransactions
//	per transaction: ID delta from previous ID | item count |
//	                 items as deltas (first item absolute, then gaps)
//
// Sorted itemsets make delta coding effective: typical gaps fit in one
// byte.
//
// What a reader enforces, whichever door the bytes come through: numItems is
// at most 2^31-1 (Item is an int32); every item integer — the first item and
// every gap — is below numItems before it is narrowed to an Item, a gap is
// never zero, and the running item stays below numItems, so an accepted
// transaction is strictly increasing and inside the vocabulary; an ID delta
// may not carry the running ID past 2^63-1, so accepted IDs never decrease
// and a writer takes back whatever a reader accepted.  The counts in the
// header say how much to read, never how much to allocate: a reader grows
// with the transactions it has actually decoded.

const (
	binaryMagic   = "PAPD"
	binaryVersion = 1
)

// AppendTransaction appends the varint/delta encoding of one transaction to
// dst and returns the extended slice: ID delta from prevID, item count, then
// item gaps (first item absolute).  This is the per-transaction unit of the
// binary dataset format, shared by WriteBinary and the partitioned
// transaction store (internal/txstore), whose partition files chain prevID
// across blocks exactly as WriteBinary chains it across the stream.
func AppendTransaction(dst []byte, t Transaction, prevID int64) ([]byte, error) {
	if t.ID < prevID {
		return dst, fmt.Errorf("itemset: transaction IDs must be non-decreasing (%d after %d)", t.ID, prevID)
	}
	if !t.Items.Valid() {
		return dst, fmt.Errorf("itemset: transaction %d: items not strictly increasing", t.ID)
	}
	dst = binary.AppendUvarint(dst, uint64(t.ID-prevID))
	dst = binary.AppendUvarint(dst, uint64(len(t.Items)))
	prev := Item(0)
	for j, it := range t.Items {
		delta := uint64(it)
		if j > 0 {
			delta = uint64(it - prev)
		}
		dst = binary.AppendUvarint(dst, delta)
		prev = it
	}
	return dst, nil
}

// DecodeTransaction decodes one transaction encoded by AppendTransaction
// from buf, appending its items to the items slice (an arena the caller may
// reuse across calls).  It returns the transaction ID, the extended items
// slice, the number of bytes consumed, or an error if the encoding is
// malformed or an item falls outside [0, numItems).  numItems must not
// exceed math.MaxInt32: every header that supplies it is held to that.
//
// Sorted items over a vocabulary of hundreds make nearly every gap — and
// every ID delta and item count — a one-byte varint, so each integer takes
// that branch inline and only a continuation byte calls binary.Uvarint.  The
// branch is written out three times because a helper holding the fallback
// call is over the inliner's budget, and as a call it costs what it saves.
// When the count's next bytes are all one-byte varints, the items are those
// bytes summed (appendGapRun); a run that breaks a rule is dropped and
// decoded again by the checked loop, which alone words the errors.
func DecodeTransaction(buf []byte, prevID int64, numItems int, items []Item) (id int64, out []Item, n int, err error) {
	var idDelta, count uint64
	if len(buf) > 0 && buf[0] < 0x80 {
		idDelta, n = uint64(buf[0]), 1
	} else {
		var w int
		if idDelta, w = binary.Uvarint(buf); w <= 0 {
			return 0, items, 0, fmt.Errorf("itemset: truncated transaction ID")
		}
		n = w
	}
	if id = prevID + int64(idDelta); id < prevID {
		return 0, items, 0, fmt.Errorf("itemset: transaction ID delta %d overflows after ID %d", idDelta, prevID)
	}
	if n < len(buf) && buf[n] < 0x80 {
		count = uint64(buf[n])
		n++
	} else {
		var w int
		if count, w = binary.Uvarint(buf[n:]); w <= 0 {
			return 0, items, 0, fmt.Errorf("itemset: transaction %d: truncated item count", id)
		}
		n += w
	}
	if count > uint64(numItems) {
		return 0, items, 0, fmt.Errorf("itemset: transaction %d: %d items exceeds vocabulary %d", id, count, numItems)
	}
	if count > 0 && count <= uint64(len(buf)-n) {
		if run, ok := appendGapRun(items, buf[n:n+int(count)], numItems); ok {
			return id, run, n + int(count), nil
		}
	}
	prev := Item(0)
	for j := uint64(0); j < count; j++ {
		var delta uint64
		if n < len(buf) && buf[n] < 0x80 {
			delta = uint64(buf[n])
			n++
		} else {
			var w int
			if delta, w = binary.Uvarint(buf[n:]); w <= 0 {
				return 0, items, 0, fmt.Errorf("itemset: transaction %d item %d: truncated", id, j)
			}
			n += w
		}
		if delta >= uint64(numItems) {
			return 0, items, 0, fmt.Errorf("itemset: transaction %d item %d: delta %d outside vocabulary %d", id, j, delta, numItems)
		}
		if j == 0 {
			prev = Item(delta)
		} else {
			if delta == 0 {
				return 0, items, 0, fmt.Errorf("itemset: transaction %d item %d: zero gap (duplicate item)", id, j)
			}
			prev += Item(delta)
		}
		if int(prev) >= numItems || prev < 0 {
			return 0, items, 0, fmt.Errorf("itemset: transaction %d item %d: item %d outside vocabulary %d", id, j, prev, numItems)
		}
		items = append(items, prev)
	}
	return id, items, n, nil
}

// appendGapRun decodes a transaction's items from run, its count bytes,
// provided every one is a one-byte varint — checked a word at a time — and
// appends them to items.  The gaps are summed without a branch per byte: a
// zero gap is caught by the sign of gap−1, and since the sum only grows, the
// last item alone is held below numItems (which also bounds every gap and
// every narrowing).  ok is false, with items as given, when the run is not
// all one-byte or breaks either rule; whatever it wrote past len(items) is
// then garbage the caller's checked decode overwrites.
//
//checkinv:hotpath
func appendGapRun(items []Item, run []byte, numItems int) (_ []Item, ok bool) {
	var high uint64
	rest := run
	for ; len(rest) >= 8; rest = rest[8:] {
		high |= binary.LittleEndian.Uint64(rest)
	}
	for _, b := range rest {
		high |= uint64(b)
	}
	if high&0x8080808080808080 != 0 {
		return items, false
	}
	start := len(items)
	grown := slices.Grow(items, len(run))[:start+len(run)]
	out := grown[start:]
	run = run[:len(out)]
	cur := int(run[0])
	out[0] = Item(cur)
	zero := 0
	for j := 1; j < len(run); j++ {
		gap := int(run[j])
		zero |= gap - 1
		cur += gap
		out[j] = Item(cur)
	}
	if zero < 0 || cur >= numItems {
		return items, false
	}
	return grown, true
}

// WriteBinary encodes the dataset in the compact binary format.
func WriteBinary(w io.Writer, d *Dataset) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return fmt.Errorf("itemset: writing binary dataset: %w", err)
	}
	if err := bw.WriteByte(binaryVersion); err != nil {
		return fmt.Errorf("itemset: writing binary dataset: %w", err)
	}
	var scratch []byte
	scratch = binary.AppendUvarint(scratch, uint64(d.NumItems))
	scratch = binary.AppendUvarint(scratch, uint64(len(d.Transactions)))
	if _, err := bw.Write(scratch); err != nil {
		return fmt.Errorf("itemset: writing binary dataset: %w", err)
	}
	prevID := int64(0)
	for i, t := range d.Transactions {
		var err error
		scratch, err = AppendTransaction(scratch[:0], t, prevID)
		if err != nil {
			return fmt.Errorf("transaction %d: %w", i, err)
		}
		prevID = t.ID
		if _, err := bw.Write(scratch); err != nil {
			return fmt.Errorf("itemset: writing binary dataset: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("itemset: flushing binary dataset: %w", err)
	}
	return nil
}

// ReadAuto detects the dataset format (binary vs basket text) from the
// first bytes and decodes accordingly.
func ReadAuto(r io.Reader) (*Dataset, error) {
	br := bufio.NewReader(r)
	return collect(br, sniff(br))
}
