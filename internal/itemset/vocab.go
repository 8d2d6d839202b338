package itemset

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Vocabulary maps between item IDs and human-readable names.  Mining
// operates on dense integer items; a Vocabulary lets applications load
// named catalogs (product names, page URLs) and render itemsets and rules
// readably.
type Vocabulary struct {
	names []string
	ids   map[string]Item
}

// NewVocabulary builds a vocabulary from names; name i becomes item i.
// Duplicate names are rejected.
func NewVocabulary(names []string) (*Vocabulary, error) {
	v := &Vocabulary{names: append([]string(nil), names...), ids: make(map[string]Item, len(names))}
	for i, n := range v.names {
		if n == "" {
			return nil, fmt.Errorf("itemset: empty name for item %d", i)
		}
		if _, dup := v.ids[n]; dup {
			return nil, fmt.Errorf("itemset: duplicate name %q", n)
		}
		v.ids[n] = Item(i)
	}
	return v, nil
}

// Len returns the number of named items.
func (v *Vocabulary) Len() int { return len(v.names) }

// Name returns the name of item it, or "item<N>" for unnamed items so
// rendering never fails.
func (v *Vocabulary) Name(it Item) string {
	if int(it) >= 0 && int(it) < len(v.names) {
		return v.names[it]
	}
	return fmt.Sprintf("item%d", it)
}

// ID looks a name up.
func (v *Vocabulary) ID(name string) (Item, bool) {
	it, ok := v.ids[name]
	return it, ok
}

// intern returns the item for name, assigning the next free ID if the name
// is new — the building block for loading named transaction files.
func (v *Vocabulary) intern(name string) Item {
	if it, ok := v.ids[name]; ok {
		return it
	}
	it := Item(len(v.names))
	v.names = append(v.names, name)
	if v.ids == nil {
		v.ids = make(map[string]Item)
	}
	v.ids[name] = it
	return it
}

// Label renders an itemset with names: "{Diaper, Milk}".
func (v *Vocabulary) Label(s Itemset) string {
	parts := make([]string, len(s))
	for i, it := range s {
		parts[i] = v.Name(it)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// WriteVocab writes one name per line, in item order.
func WriteVocab(w io.Writer, v *Vocabulary) error {
	bw := bufio.NewWriter(w)
	for _, n := range v.names {
		if _, err := fmt.Fprintln(bw, n); err != nil {
			return fmt.Errorf("itemset: writing vocabulary: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("itemset: flushing vocabulary: %w", err)
	}
	return nil
}

// ReadVocab reads a vocabulary written by WriteVocab.
func ReadVocab(r io.Reader) (*Vocabulary, error) {
	sc := bufio.NewScanner(r)
	var names []string
	for sc.Scan() {
		names = append(names, sc.Text())
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("itemset: reading vocabulary: %w", err)
	}
	return NewVocabulary(names)
}

// ReadNamed parses a transaction file whose items are names rather than
// integers — one transaction per line, names separated by the given
// delimiter (e.g. "," for CSV-ish baskets; any amount of surrounding space
// is trimmed).  It returns the dataset plus the vocabulary built from the
// names in order of first appearance.
func ReadNamed(r io.Reader, delim string) (*Dataset, *Vocabulary, error) {
	if delim == "" {
		delim = ","
	}
	v, err := NewVocabulary(nil)
	if err != nil {
		return nil, nil, err
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var txns []Transaction
	var id int64
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var items []Item
		for _, field := range strings.Split(line, delim) {
			name := strings.TrimSpace(field)
			if name == "" {
				continue
			}
			items = append(items, v.intern(name))
		}
		if len(items) == 0 {
			continue
		}
		txns = append(txns, Transaction{ID: id, Items: New(items...)})
		id++
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("itemset: reading named dataset: %w", err)
	}
	d := NewDataset(txns)
	if d.NumItems < v.Len() {
		d.NumItems = v.Len()
	}
	return d, v, nil
}

// Names returns the vocabulary's names sorted alphabetically — handy for
// stable display of catalogs.
func (v *Vocabulary) Names() []string {
	out := append([]string(nil), v.names...)
	sort.Strings(out)
	return out
}
