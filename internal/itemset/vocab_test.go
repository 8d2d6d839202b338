package itemset

import (
	"bytes"
	"strings"
	"testing"
)

func TestVocabularyBasics(t *testing.T) {
	v, err := NewVocabulary([]string{"Bread", "Beer", "Coke"})
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 3 {
		t.Errorf("Len = %d", v.Len())
	}
	if got := v.Name(1); got != "Beer" {
		t.Errorf("Name(1) = %q", got)
	}
	if got := v.Name(9); got != "item9" {
		t.Errorf("Name(9) = %q", got)
	}
	if id, ok := v.ID("Coke"); !ok || id != 2 {
		t.Errorf("ID(Coke) = %d, %v", id, ok)
	}
	if _, ok := v.ID("Milk"); ok {
		t.Error("unknown name resolved")
	}
	if got := v.Label(New(0, 2)); got != "{Bread, Coke}" {
		t.Errorf("Label = %q", got)
	}
}

func TestVocabularyValidation(t *testing.T) {
	if _, err := NewVocabulary([]string{"a", "a"}); err == nil {
		t.Error("duplicate accepted")
	}
	if _, err := NewVocabulary([]string{"a", ""}); err == nil {
		t.Error("empty name accepted")
	}
}

func TestIntern(t *testing.T) {
	v, err := NewVocabulary(nil)
	if err != nil {
		t.Fatal(err)
	}
	a := v.intern("apple")
	b := v.intern("banana")
	if a == b {
		t.Error("distinct names share an ID")
	}
	if again := v.intern("apple"); again != a {
		t.Errorf("re-interning changed ID: %d vs %d", again, a)
	}
	if v.Len() != 2 {
		t.Errorf("Len = %d", v.Len())
	}
}

func TestVocabRoundTrip(t *testing.T) {
	v, err := NewVocabulary([]string{"x", "y", "z"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteVocab(&buf, v); err != nil {
		t.Fatal(err)
	}
	back, err := ReadVocab(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 3 {
		t.Fatalf("Len = %d", back.Len())
	}
	for _, name := range []string{"x", "y", "z"} {
		wantID, _ := v.ID(name)
		gotID, ok := back.ID(name)
		if !ok || gotID != wantID {
			t.Errorf("ID(%q) = %d, want %d", name, gotID, wantID)
		}
	}
}

func TestReadNamed(t *testing.T) {
	in := `
# a comment
Bread, Coke, Milk
Beer,Bread
Beer , Coke , Diaper , Milk
`
	d, v, err := ReadNamed(strings.NewReader(in), ",")
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 3 {
		t.Fatalf("Len = %d", d.Len())
	}
	bread, ok := v.ID("Bread")
	if !ok {
		t.Fatal("Bread not interned")
	}
	if !d.Transactions[0].Items.Contains(bread) || !d.Transactions[1].Items.Contains(bread) {
		t.Error("Bread missing from its transactions")
	}
	if d.Transactions[2].Items.Contains(bread) {
		t.Error("Bread present where it should not be")
	}
	if v.Len() != 5 {
		t.Errorf("vocabulary has %d names, want 5", v.Len())
	}
	if d.NumItems < v.Len() {
		t.Errorf("NumItems %d below vocabulary %d", d.NumItems, v.Len())
	}
	// Default delimiter.
	d2, _, err := ReadNamed(strings.NewReader("a,b\n"), "")
	if err != nil || d2.Len() != 1 {
		t.Errorf("default delim: %v, %d", err, d2.Len())
	}
}

func TestNamesSorted(t *testing.T) {
	v, err := NewVocabulary([]string{"pear", "apple", "mango"})
	if err != nil {
		t.Fatal(err)
	}
	names := v.Names()
	if names[0] != "apple" || names[2] != "pear" {
		t.Errorf("Names = %v", names)
	}
}
