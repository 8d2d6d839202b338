package itemset

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewSortsAndDedups(t *testing.T) {
	cases := []struct {
		in   []Item
		want Itemset
	}{
		{nil, Itemset{}},
		{[]Item{5}, Itemset{5}},
		{[]Item{3, 1, 2}, Itemset{1, 2, 3}},
		{[]Item{2, 2, 2}, Itemset{2}},
		{[]Item{9, 1, 9, 1, 5}, Itemset{1, 5, 9}},
	}
	for _, c := range cases {
		got := New(c.in...)
		if !got.Equal(c.want) {
			t.Errorf("New(%v) = %v, want %v", c.in, got, c.want)
		}
		if !got.Valid() {
			t.Errorf("New(%v) = %v not valid", c.in, got)
		}
	}
}

func TestNewDoesNotModifyInput(t *testing.T) {
	in := []Item{3, 1, 2}
	New(in...)
	if !reflect.DeepEqual(in, []Item{3, 1, 2}) {
		t.Errorf("New modified its input: %v", in)
	}
}

// TestNewMatchesReference: New against a set-based sort-and-dedupe over
// random inputs — with duplicates, already strictly increasing, increasing
// with repeats, and sorted runs spliced together — and the result never
// shares memory with its argument, including when New has nothing to sort.
func TestNewMatchesReference(t *testing.T) {
	reference := func(in []Item) Itemset {
		seen := make(map[Item]bool)
		out := Itemset{}
		for _, it := range in {
			if !seen[it] {
				seen[it] = true
				out = append(out, it)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	rng := rand.New(rand.NewSource(38))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(24)
		in := make([]Item, n)
		switch trial % 4 {
		case 0: // arbitrary, duplicates likely
			for i := range in {
				in[i] = Item(rng.Intn(12))
			}
		case 1: // already canonical
			next := Item(rng.Intn(3))
			for i := range in {
				in[i] = next
				next += Item(1 + rng.Intn(4))
			}
		case 2: // sorted, with repeats
			next := Item(0)
			for i := range in {
				in[i] = next
				next += Item(rng.Intn(2))
			}
		case 3: // increasing runs spliced together
			next := Item(rng.Intn(8))
			for i := range in {
				if rng.Intn(5) == 0 {
					next = Item(rng.Intn(8))
				}
				in[i] = next
				next++
			}
		}
		orig := slices.Clone(in)
		got := New(in...)
		if want := reference(in); !reflect.DeepEqual(got, want) {
			t.Fatalf("New(%v) = %v, want %v", in, got, want)
		}
		if !slices.Equal(in, orig) {
			t.Fatalf("New modified its input: %v, was %v", in, orig)
		}
		for i := range got {
			got[i] = -1
		}
		if !slices.Equal(in, orig) {
			t.Fatalf("New's result shares memory with its input %v", orig)
		}
	}
}

func TestValid(t *testing.T) {
	cases := []struct {
		s    Itemset
		want bool
	}{
		{Itemset{}, true},
		{Itemset{1}, true},
		{Itemset{1, 2, 3}, true},
		{Itemset{1, 1}, false},
		{Itemset{2, 1}, false},
	}
	for _, c := range cases {
		if got := c.s.Valid(); got != c.want {
			t.Errorf("%v.Valid() = %v, want %v", c.s, got, c.want)
		}
	}
}

func TestContains(t *testing.T) {
	s := New(1, 3, 5, 7)
	for _, it := range []Item{1, 3, 5, 7} {
		if !s.Contains(it) {
			t.Errorf("%v should contain %d", s, it)
		}
	}
	for _, it := range []Item{0, 2, 4, 6, 8, 100} {
		if s.Contains(it) {
			t.Errorf("%v should not contain %d", s, it)
		}
	}
}

func TestContainsAll(t *testing.T) {
	s := New(1, 2, 3, 5, 6)
	cases := []struct {
		sub  Itemset
		want bool
	}{
		{New(), true},
		{New(1), true},
		{New(1, 6), true},
		{New(2, 3, 5), true},
		{New(1, 2, 3, 5, 6), true},
		{New(4), false},
		{New(1, 4), false},
		{New(1, 2, 3, 5, 6, 7), false},
		{New(0), false},
		{New(7), false},
	}
	for _, c := range cases {
		if got := s.ContainsAll(c.sub); got != c.want {
			t.Errorf("%v.ContainsAll(%v) = %v, want %v", s, c.sub, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Itemset
		want int
	}{
		{New(), New(), 0},
		{New(1), New(1), 0},
		{New(1), New(2), -1},
		{New(2), New(1), 1},
		{New(1), New(1, 2), -1},
		{New(1, 2), New(1), 1},
		{New(1, 3), New(1, 2, 9), 1},
		{New(1, 2, 3), New(1, 2, 3), 0},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("%v.Compare(%v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := c.b.Compare(c.a); got != -c.want {
			t.Errorf("%v.Compare(%v) = %d, want %d", c.b, c.a, got, -c.want)
		}
	}
}

func TestMinus(t *testing.T) {
	a, b := New(1, 3, 5), New(2, 3, 6)
	if got := a.AppendMinus(nil, b); !got.Equal(New(1, 5)) {
		t.Errorf("minus = %v", got)
	}
	if got := b.AppendMinus(nil, a); !got.Equal(New(2, 6)) {
		t.Errorf("minus = %v", got)
	}
	// The difference lands after what dst already holds, in dst's array.
	var buf [8]Item
	dst := append(buf[:0], 0)
	if got := a.AppendMinus(dst, b); !got.Equal(Itemset{0, 1, 5}) || &got[0] != &buf[0] {
		t.Errorf("append minus = %v", got)
	}
}

func TestKeyRoundTrip(t *testing.T) {
	f := func(raw []uint16) bool {
		items := make([]Item, len(raw))
		for i, r := range raw {
			items[i] = Item(r)
		}
		s := New(items...)
		return KeyToItemset(s.Key()).Equal(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyUnique(t *testing.T) {
	seen := map[string]Itemset{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		n := rng.Intn(5)
		items := make([]Item, n)
		for j := range items {
			items[j] = Item(rng.Intn(50))
		}
		s := New(items...)
		k := s.Key()
		if prev, ok := seen[k]; ok && !prev.Equal(s) {
			t.Fatalf("key collision: %v and %v share %q", prev, s, k)
		}
		seen[k] = s
	}
}

// Property: AppendMinus removes exactly the common elements.
func TestMinusProperties(t *testing.T) {
	f := func(ra, rb []uint8) bool {
		a := fromBytes(ra)
		b := fromBytes(rb)
		m := a.AppendMinus(nil, b)
		if !m.Valid() || !a.ContainsAll(m) {
			return false
		}
		for _, it := range m {
			if b.Contains(it) {
				return false
			}
		}
		for _, it := range a {
			if !b.Contains(it) && !m.Contains(it) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func fromBytes(raw []uint8) Itemset {
	items := make([]Item, len(raw))
	for i, r := range raw {
		items[i] = Item(r)
	}
	return New(items...)
}

func TestCloneIndependent(t *testing.T) {
	a := New(1, 2, 3)
	c := a.Clone()
	c[0] = 99
	if a[0] != 1 {
		t.Error("Clone shares backing array")
	}
}

func TestString(t *testing.T) {
	if got := New(3, 1, 5).String(); got != "{1 3 5}" {
		t.Errorf("String() = %q", got)
	}
	if got := New().String(); got != "{}" {
		t.Errorf("String() = %q", got)
	}
}

func TestTransactionBytes(t *testing.T) {
	tx := Transaction{ID: 1, Items: New(1, 2, 3)}
	if got := tx.Bytes(); got != 8+12 {
		t.Errorf("Bytes() = %d, want 20", got)
	}
}

func TestAppendKeyMatchesKey(t *testing.T) {
	sets := []Itemset{New(), New(7), New(3, 1, 5), New(0, 1<<20, 42)}
	for _, s := range sets {
		if got := string(s.AppendKey(nil)); got != s.Key() {
			t.Errorf("AppendKey(%v) = %q, Key = %q", s, got, s.Key())
		}
	}
	// Appending onto an existing prefix keeps the prefix intact.
	pre := []byte("k:")
	got := New(1, 2).AppendKey(pre)
	if string(got[:2]) != "k:" || string(got[2:]) != New(1, 2).Key() {
		t.Errorf("AppendKey onto prefix = %q", got)
	}
}
