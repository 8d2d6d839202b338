// Package itemset provides the basic vocabulary of association-rule mining:
// items, itemsets, transactions and transaction datasets.
//
// An Itemset is always kept in strictly increasing item order with no
// duplicates.  That invariant is what makes subset tests, lexicographic
// comparison and the Apriori candidate join cheap, and every constructor in
// this package enforces it.
package itemset

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Item identifies a single item.  Items are small non-negative integers so
// that per-item tables (first-item counts, bitmaps) can be dense arrays.
type Item int32

// Itemset is a set of items in strictly increasing order.
type Itemset []Item

// New builds an Itemset from arbitrary items: it sorts them and removes
// duplicates.  The input slice is not modified and the result never shares
// its memory.  Input already in strictly increasing order (a transaction's
// items always are) is only copied.
func New(items ...Item) Itemset {
	s := make(Itemset, len(items))
	copy(s, items)
	if s.Valid() {
		return s
	}
	slices.Sort(s)
	return slices.Compact(s)
}

// Valid reports whether s is in strictly increasing order (the Itemset
// invariant).
func (s Itemset) Valid() bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] >= s[i] {
			return false
		}
	}
	return true
}

// Hash mixes the items of s, multiply-xorshift per item.  It is the one
// hash an itemset is looked up by.
func (s Itemset) Hash() uint64 {
	h := uint64(len(s))
	for _, it := range s {
		h = (h ^ uint64(uint32(it))) * 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	return h ^ h>>32
}

// Contains reports whether s contains item it.
func (s Itemset) Contains(it Item) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= it })
	return i < len(s) && s[i] == it
}

// ContainsAll reports whether sub is a subset of s.  Both slices must be
// sorted (the Itemset invariant); the test is a linear merge.
//
//checkinv:hotpath
func (s Itemset) ContainsAll(sub Itemset) bool {
	if len(sub) > len(s) {
		return false
	}
	i := 0
	for _, want := range sub {
		for i < len(s) && s[i] < want {
			i++
		}
		if i == len(s) || s[i] != want {
			return false
		}
		i++
	}
	return true
}

// Equal reports whether s and t contain exactly the same items.
func (s Itemset) Equal(t Itemset) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Compare orders itemsets lexicographically, shorter-prefix first.
// It returns -1, 0 or +1.
func (s Itemset) Compare(t Itemset) int {
	n := len(s)
	if len(t) < n {
		n = len(t)
	}
	for i := 0; i < n; i++ {
		switch {
		case s[i] < t[i]:
			return -1
		case s[i] > t[i]:
			return 1
		}
	}
	switch {
	case len(s) < len(t):
		return -1
	case len(s) > len(t):
		return 1
	}
	return 0
}

// AppendMinus appends s \ t (items of s not in t) to dst and returns the
// extended slice, so a caller can build the difference in a buffer of its
// own.
func (s Itemset) AppendMinus(dst, t Itemset) Itemset {
	out := dst
	j := 0
	for _, it := range s {
		for j < len(t) && t[j] < it {
			j++
		}
		if j < len(t) && t[j] == it {
			continue
		}
		out = append(out, it)
	}
	return out
}

// Key returns a compact byte-string key uniquely identifying s, suitable for
// use as a map key.  Each item is encoded in 4 big-endian bytes so keys of
// equal-length itemsets also sort lexicographically like Compare.
func (s Itemset) Key() string {
	var b strings.Builder
	b.Grow(4 * len(s))
	var buf [4]byte
	for _, it := range s {
		binary.BigEndian.PutUint32(buf[:], uint32(it))
		b.Write(buf[:])
	}
	return b.String()
}

// AppendKey appends the canonical key bytes of s (the Key encoding) to dst
// and returns the extended slice.  It is the allocation-friendly form for
// callers that compose keys — e.g. the serving layer's query cache, which
// keys entries by canonical basket bytes plus the result size.
func (s Itemset) AppendKey(dst []byte) []byte {
	var buf [4]byte
	for _, it := range s {
		binary.BigEndian.PutUint32(buf[:], uint32(it))
		dst = append(dst, buf[:]...)
	}
	return dst
}

// String renders s as "{1 3 5}".
func (s Itemset) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, it := range s {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", it)
	}
	b.WriteByte('}')
	return b.String()
}

// Transaction is one database record: a transaction identifier and the
// itemset bought/observed in it.
type Transaction struct {
	ID    int64
	Items Itemset
}

// Bytes returns the approximate on-the-wire size of the transaction,
// used by the cluster cost model: 8 bytes of TID plus 4 per item.
func (t Transaction) Bytes() int { return 8 + 4*len(t.Items) }
