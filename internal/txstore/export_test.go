package txstore

import "parapriori/internal/itemset"

// SetPoison turns on the store's poison seam for the external tests of this
// package: every reader scribbles over its recycled buffers before each Next
// and at Close.
func (s *Store) SetPoison() { s.poison = (*readBufs).scribble }

// scribble overwrites everything a previous block left in the buffers — the
// poison seam's way of making a block retained past its validity fail loudly
// (negative items, negative IDs) instead of reading stale-but-plausible data.
func (b *readBufs) scribble() {
	payload := b.payload[:cap(b.payload)]
	for i := range payload {
		payload[i] = 0xa5
	}
	items := b.items[:cap(b.items)]
	for i := range items {
		items[i] = -1
	}
	txns := b.txns[:cap(b.txns)]
	for i := range txns {
		txns[i] = itemset.Transaction{ID: -1}
	}
}
