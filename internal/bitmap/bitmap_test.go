package bitmap

import (
	"math/bits"
	"testing"
	"testing/quick"
)

// count is the number of set bits in the bitmap's words, so a stray bit
// that Test cannot reach counts too.
func count(b *Bitmap) int {
	total := 0
	for _, w := range b.words {
		total += bits.OnesCount64(w)
	}
	return total
}

func TestSetTest(t *testing.T) {
	b := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 129} {
		if b.Test(i) {
			t.Errorf("bit %d set in fresh bitmap", i)
		}
		b.Set(i)
		if !b.Test(i) {
			t.Errorf("bit %d not set after Set", i)
		}
	}
	if got := count(b); got != 7 {
		t.Errorf("count = %d, want 7", got)
	}
}

func TestOutOfRangeTestIsFalse(t *testing.T) {
	b := New(10)
	for _, i := range []int{-1, 10, 11, 1000} {
		if b.Test(i) {
			t.Errorf("Test(%d) = true for capacity 10", i)
		}
	}
}

func TestZeroCapacity(t *testing.T) {
	b := New(0)
	if count(b) != 0 || b.Test(0) {
		t.Error("zero-capacity bitmap misbehaves")
	}
	neg := New(-5)
	if neg.Bytes() != 0 || neg.Test(0) {
		t.Errorf("New(-5) holds %d bytes", neg.Bytes())
	}
}

func TestReset(t *testing.T) {
	b := New(100)
	for i := 0; i < 100; i += 3 {
		b.Set(i)
	}
	b.Reset()
	if count(b) != 0 {
		t.Errorf("count after Reset = %d", count(b))
	}
	if b.Bytes() != 16 || b.Test(100) {
		t.Errorf("Reset changed the capacity: %d bytes", b.Bytes())
	}
}

func TestClone(t *testing.T) {
	a := New(70)
	a.Set(1)
	a.Set(65)
	c := a.Clone()
	c.Set(2)
	for _, i := range []int{1, 2, 65} {
		if !c.Test(i) {
			t.Errorf("bit %d missing from the clone", i)
		}
	}
	if count(c) != 3 {
		t.Errorf("count = %d, want 3", count(c))
	}
	// a unchanged by a Set on its clone.
	if count(a) != 2 {
		t.Errorf("original mutated: count = %d", count(a))
	}
}

func TestCountMatchesModel(t *testing.T) {
	f := func(xs []uint8) bool {
		b := New(256)
		model := map[int]bool{}
		for _, x := range xs {
			b.Set(int(x))
			model[int(x)] = true
		}
		if count(b) != len(model) {
			return false
		}
		for i := 0; i < 256; i++ {
			if b.Test(i) != model[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBytes(t *testing.T) {
	if got := New(64).Bytes(); got != 8 {
		t.Errorf("Bytes = %d, want 8", got)
	}
	if got := New(65).Bytes(); got != 16 {
		t.Errorf("Bytes = %d, want 16", got)
	}
}
