// Package bitmap implements a dense bitset over small non-negative integers.
//
// IDD keeps, at every processor, a bitmap of the first items of the
// candidates assigned to that processor; the subset function consults it at
// the hash-tree root to skip transaction items that cannot start a local
// candidate (Section III-C of the paper).
package bitmap

// Bitmap is a fixed-capacity bitset.  The zero value is an empty bitmap of
// capacity 0; use New to allocate capacity.
type Bitmap struct {
	words []uint64
	n     int
}

// New returns an empty bitmap able to hold values in [0, n).
func New(n int) *Bitmap {
	if n < 0 {
		n = 0
	}
	return &Bitmap{words: make([]uint64, (n+63)/64), n: n}
}

// Set sets bit i.  Setting a bit outside [0, n) of New(n) panics, as it
// would in an array: the caller sized the bitmap to the item vocabulary.
func (b *Bitmap) Set(i int) {
	b.words[i>>6] |= 1 << (uint(i) & 63)
}

// Test reports whether bit i is set.  Out-of-range values report false so
// filtering with a bitmap sized to the vocabulary is always safe.
func (b *Bitmap) Test(i int) bool {
	if i < 0 || i >= b.n {
		return false
	}
	return b.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Reset clears every bit, keeping capacity.
func (b *Bitmap) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Clone returns an independent copy.
func (b *Bitmap) Clone() *Bitmap {
	c := &Bitmap{words: make([]uint64, len(b.words)), n: b.n}
	copy(c.words, b.words)
	return c
}

// Bytes returns the memory footprint of the bitmap payload, used by the
// cluster cost model when bitmaps are exchanged.
func (b *Bitmap) Bytes() int { return 8 * len(b.words) }
