package itemset

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// decodeTransactionRef is DecodeTransaction as it was before the one-byte
// fast path: every integer through binary.Uvarint.  The differential test
// and FuzzDecodeBlock hold the fast path to it.
func decodeTransactionRef(buf []byte, prevID int64, numItems int, items []Item) (id int64, out []Item, n int, err error) {
	idDelta, w := binary.Uvarint(buf)
	if w <= 0 {
		return 0, items, 0, fmt.Errorf("itemset: truncated transaction ID")
	}
	n = w
	if id = prevID + int64(idDelta); id < prevID {
		return 0, items, 0, fmt.Errorf("itemset: transaction ID delta %d overflows after ID %d", idDelta, prevID)
	}
	count, w := binary.Uvarint(buf[n:])
	if w <= 0 {
		return 0, items, 0, fmt.Errorf("itemset: transaction %d: truncated item count", id)
	}
	n += w
	if count > uint64(numItems) {
		return 0, items, 0, fmt.Errorf("itemset: transaction %d: %d items exceeds vocabulary %d", id, count, numItems)
	}
	prev := Item(0)
	for j := uint64(0); j < count; j++ {
		delta, w := binary.Uvarint(buf[n:])
		if w <= 0 {
			return 0, items, 0, fmt.Errorf("itemset: transaction %d item %d: truncated", id, j)
		}
		n += w
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

// arenaSentinel fills the spare capacity of checkBlockDecode's arena: an
// item the decoder did not write shows up as it.
const arenaSentinel = Item(-7)

// checkBlockDecode decodes payload as a block — transaction after
// transaction until it is consumed or one fails — with both decoders, and
// requires the same ID, items, consumed length and error text at every step.
// DecodeTransaction appends into one arena reused across the block, as the
// store's reader does, starting from a non-empty prefix and with its spare
// capacity sentinel-filled before every call: what came before must be
// untouched and what it appends must be the reference's items.  It reports
// whether the whole payload decoded.
func checkBlockDecode(t *testing.T, payload []byte, numItems int) bool {
	t.Helper()
	arena := append(make([]Item, 0, 16), 5, 1, 4)
	prefix := append([]Item(nil), arena...)
	var prev int64
	for off := 0; off < len(payload); {
		spare := arena[len(arena):cap(arena)]
		for i := range spare {
			spare[i] = arenaSentinel
		}
		gid, gout, gn, gerr := DecodeTransaction(payload[off:], prev, numItems, arena)
		wid, wout, wn, werr := decodeTransactionRef(payload[off:], prev, numItems, nil)
		if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
			t.Fatalf("offset %d of %x: error %v, reference %v", off, payload, gerr, werr)
		}
		if len(gout) < len(prefix) || !Itemset(gout[:len(prefix)]).Equal(Itemset(prefix)) {
			t.Fatalf("offset %d of %x: arena prefix %v became %v", off, payload, prefix, gout[:min(len(prefix), len(gout))])
		}
		if got := gout[len(prefix):]; gid != wid || gn != wn || !Itemset(got).Equal(Itemset(wout)) {
			t.Fatalf("offset %d of %x: got id %d items %v n %d, reference id %d items %v n %d", off, payload, gid, got, gn, wid, wout, wn)
		}
		if gerr != nil {
			return false
		}
		prefix = append(prefix, wout...)
		arena = gout
		prev, off = gid, off+gn
	}
	return true
}

// uvarints concatenates the varint encodings of vs.
func uvarints(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// decodeCases are hand-made payloads for every branch of the decoder, as
// (payload, vocabulary) pairs; they double as the fuzz seed corpus.
func decodeCases() []struct {
	payload  []byte
	numItems int
} {
	overlong := append(uvarints(1, 2, 3), 0x84, 0x80, 0x00) // gap 4 padded to three bytes
	overflow := append(uvarints(1, 1), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)
	return []struct {
		payload  []byte
		numItems int
	}{
		{uvarints(0, 3, 1, 4, 4, 7, 0), 300},      // two transactions, the second empty
		{uvarints(5, 3, 200, 300, 70000), 100000}, // multi-byte first item and gaps
		{uvarints(1<<40, 1, 9), 10},               // multi-byte ID delta
		{uvarints(0, 200), 300},                   // multi-byte count, then nothing
		{overlong, 300},                           // non-canonical but in range
		{overflow, 300},                           // eleven-byte varint
		{uvarints(0, 3, 1, 0, 2), 300},            // zero gap
		{uvarints(0, 2, 1, 299), 300},             // item == vocabulary
		{uvarints(0, 1, 1<<31), 1 << 20},          // item wraps negative
		{uvarints(0, 9, 1), 8},                    // count over vocabulary
		{[]byte{0x80}, 300},                       // ID cut mid-varint
		{[]byte{0x01, 0x80}, 300},                 // count cut mid-varint
		{[]byte{0x01, 0x02, 0x05, 0x80}, 300},     // item cut mid-varint
		{[]byte{0x01, 0x02, 0x05}, 300},           // item missing
		{nil, 300},
		{uvarints(0, 1, 1<<32-1), 10},            // item narrows to -1
		{uvarints(0, 2, 3, 1<<32), 10},           // gap narrows to 0
		{uvarints(0, 2, 5, 1<<32-2), 10},         // gap narrows to -2
		{uvarints(1<<63, 1, 4), 10},              // ID delta turns the ID negative
		{uvarints(1<<62, 0, 1<<62, 0, 1, 0), 10}, // ID deltas sum past 2^63-1
		// The one-byte run and its fallback to the checked loop.
		{uvarints(0, 3, 1, 2, 3), 6},                              // run sums to exactly numItems
		{uvarints(0, 3, 1, 2, 3, 0, 3, 1, 2, 3), 7},               // runs ending at numItems-1, twice
		{uvarints(0, 3, 1, 2, 0), 300},                            // zero gap as the last item
		{uvarints(0, 4, 1, 2, 200, 3), 300},                       // one multi-byte gap among one-byte gaps
		{uvarints(0, 3, 1, 100, 2), 50},                           // numItems < 128, a gap ≥ numItems
		{uvarints(0, 5, 1, 2, 3), 300},                            // all-one-byte count overruns the buffer
		{uvarints(0, 12, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1), 13}, // a run past one word
	}
}

func TestDecodeMatchesUvarintReference(t *testing.T) {
	for _, c := range decodeCases() {
		checkBlockDecode(t, c.payload, c.numItems)
	}

	// Random valid blocks over a narrow vocabulary (one-byte gaps, the fast
	// path throughout) and a wide one (mostly multi-byte), then every
	// truncation of each, and every single-byte corruption of a few.
	rng := rand.New(rand.NewSource(13))
	for _, numItems := range []int{300, 1 << 20} {
		for round := 0; round < 20; round++ {
			var payload []byte
			var prev int64
			for i := 0; i < 1+rng.Intn(6); i++ {
				picks := make([]Item, rng.Intn(12))
				for j := range picks {
					picks[j] = Item(rng.Intn(numItems))
				}
				tx := Transaction{ID: prev + int64(rng.Intn(300)), Items: New(picks...)}
				var err error
				if payload, err = AppendTransaction(payload, tx, prev); err != nil {
					t.Fatalf("append: %v", err)
				}
				prev = tx.ID
			}
			if !checkBlockDecode(t, payload, numItems) {
				t.Fatalf("valid payload %x rejected", payload)
			}
			for cut := range payload {
				checkBlockDecode(t, payload[:cut], numItems)
			}
			if round < 3 {
				mut := append([]byte(nil), payload...)
				for i := range mut {
					for _, v := range []byte{0x00, 0x7f, 0x80, 0xff} {
						mut[i] = v
						checkBlockDecode(t, mut, numItems)
					}
					mut[i] = payload[i]
				}
			}
		}
	}
}

// FuzzDecodeBlock pins the fast-path decoder to the binary.Uvarint-only
// reference on arbitrary block payloads: same items, same consumed length,
// same error text, never a panic.
func FuzzDecodeBlock(f *testing.F) {
	for _, c := range decodeCases() {
		f.Add(c.payload, uint32(c.numItems))
	}
	f.Fuzz(func(t *testing.T, payload []byte, numItems uint32) {
		checkBlockDecode(t, payload, int(numItems%(1<<21)))
	})
}
