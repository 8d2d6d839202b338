package itemset

import (
	"reflect"
	"testing"
)

func TestFlatAtIsCapacityClipped(t *testing.T) {
	f := Flat{K: 2, Items: []Item{1, 2, 1, 3, 2, 3}}
	if f.Len() != 3 {
		t.Fatalf("Len = %d, want 3", f.Len())
	}
	first := f.At(0)
	if !first.Equal(New(1, 2)) || cap(first) != 2 {
		t.Fatalf("At(0) = %v with capacity %d, want {1 2} with capacity 2", first, cap(first))
	}
	_ = append(first, 99)
	if !f.At(1).Equal(New(1, 3)) {
		t.Fatalf("appending to At(0) overwrote At(1): %v", f.At(1))
	}
	if got := (Flat{}).Len(); got != 0 {
		t.Fatalf("zero Flat has Len %d", got)
	}
}

func TestFlatSlice(t *testing.T) {
	f := Flat{K: 3, Items: []Item{1, 2, 3, 1, 2, 4, 1, 3, 4, 2, 3, 4}}
	mid := f.Slice(1, 3)
	if mid.K != 3 || mid.Len() != 2 || !mid.At(0).Equal(New(1, 2, 4)) || !mid.At(1).Equal(New(1, 3, 4)) {
		t.Fatalf("Slice(1, 3) = %+v", mid)
	}
	if &mid.Items[0] != &f.Items[3] {
		t.Fatal("Slice copied the items")
	}
	_ = append(mid.Items, 7, 7, 7)
	if !f.At(3).Equal(New(2, 3, 4)) {
		t.Fatalf("appending to Slice(1, 3) overwrote itemset 3: %v", f.At(3))
	}
	if empty := f.Slice(2, 2); empty.Len() != 0 {
		t.Fatalf("Slice(2, 2) has Len %d", empty.Len())
	}
}

// TestFlatRoundTrip copies headers into a Flat and back: the same itemsets
// in the same order, each header a view into the one array.
func TestFlatRoundTrip(t *testing.T) {
	sets := []Itemset{New(4, 9), New(1, 7), New(2, 3), New(1, 7)}
	f, err := FlatOf(2, sets)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Items, []Item{4, 9, 1, 7, 2, 3, 1, 7}) {
		t.Fatalf("FlatOf items = %v", f.Items)
	}
	back := f.Itemsets()
	if !reflect.DeepEqual(back, sets) {
		t.Fatalf("Itemsets = %v, want %v", back, sets)
	}
	for i, s := range back {
		if &s[0] != &f.Items[2*i] || cap(s) != 2 {
			t.Fatalf("header %d is not a clipped view into the flat items", i)
		}
	}
	if empty, err := FlatOf(3, nil); err != nil || empty.K != 3 || empty.Len() != 0 || len(empty.Itemsets()) != 0 {
		t.Fatalf("FlatOf(3, nil) = %+v, %v", empty, err)
	}
	if _, err := FlatOf(2, []Itemset{New(1, 2), New(1, 2, 3)}); err == nil {
		t.Fatal("FlatOf accepted an itemset of the wrong size")
	}
	if _, err := FlatOf(0, []Itemset{{}}); err == nil {
		t.Fatal("FlatOf accepted empty itemsets, which a Flat cannot count")
	}
}
