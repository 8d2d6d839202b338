package itemset

import (
	"bytes"
	"strings"
	"testing"
)

func sample() *Dataset {
	return NewDataset([]Transaction{
		{ID: 0, Items: New(1, 2, 3)},
		{ID: 1, Items: New(2, 4)},
		{ID: 2, Items: New(1, 5)},
		{ID: 3, Items: New(3)},
		{ID: 4, Items: New(0, 6)},
	})
}

func TestNewDatasetNumItems(t *testing.T) {
	d := sample()
	if d.NumItems != 7 {
		t.Errorf("NumItems = %d, want 7", d.NumItems)
	}
	if d.Len() != 5 {
		t.Errorf("Len = %d, want 5", d.Len())
	}
}

func TestAvgLen(t *testing.T) {
	d := sample()
	want := float64(3+2+2+1+2) / 5
	if got := d.AvgLen(); got != want {
		t.Errorf("AvgLen = %v, want %v", got, want)
	}
	empty := NewDataset(nil)
	if got := empty.AvgLen(); got != 0 {
		t.Errorf("empty AvgLen = %v", got)
	}
}

func TestSplitCoversAll(t *testing.T) {
	d := sample()
	for p := 1; p <= 7; p++ {
		shards := d.Split(p)
		if len(shards) != p {
			t.Fatalf("Split(%d) returned %d shards", p, len(shards))
		}
		total := 0
		for _, s := range shards {
			total += s.Len()
			if s.NumItems != d.NumItems {
				t.Errorf("shard NumItems = %d, want %d", s.NumItems, d.NumItems)
			}
		}
		if total != d.Len() {
			t.Errorf("Split(%d) covers %d transactions, want %d", p, total, d.Len())
		}
		// Shards must be nearly equal: sizes differ by at most 1.
		min, max := d.Len(), 0
		for _, s := range shards {
			if s.Len() < min {
				min = s.Len()
			}
			if s.Len() > max {
				max = s.Len()
			}
		}
		if max-min > 1 {
			t.Errorf("Split(%d) imbalanced: min %d, max %d", p, min, max)
		}
	}
}

func TestSplitPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Split(0) should panic")
		}
	}()
	sample().Split(0)
}

func TestPages(t *testing.T) {
	d := sample()
	pages := d.Pages(25) // small pages force splits
	total := 0
	for _, pg := range pages {
		if len(pg) == 0 {
			t.Error("empty page")
		}
		total += len(pg)
	}
	if total != d.Len() {
		t.Errorf("pages cover %d transactions, want %d", total, d.Len())
	}
	// One giant page when the limit is huge.
	if got := len(d.Pages(1 << 30)); got != 1 {
		t.Errorf("expected a single page, got %d", got)
	}
	// Zero page size falls back to the default rather than panicking.
	if got := d.Pages(0); len(got) != 1 {
		t.Errorf("Pages(0) = %d pages", len(got))
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	d := sample()
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := readText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != d.Len() {
		t.Fatalf("round trip lost transactions: %d vs %d", got.Len(), d.Len())
	}
	for i := range d.Transactions {
		if !got.Transactions[i].Items.Equal(d.Transactions[i].Items) {
			t.Errorf("transaction %d: %v != %v", i, got.Transactions[i].Items, d.Transactions[i].Items)
		}
	}
}

func TestReadSkipsCommentsAndBlanks(t *testing.T) {
	in := "# header\n1 2 3\n\n4 5\n# trailing\n"
	d, err := readText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
	if !d.Transactions[0].Items.Equal(New(1, 2, 3)) {
		t.Errorf("first = %v", d.Transactions[0].Items)
	}
}

func TestReadSortsAndAssignsIDs(t *testing.T) {
	d, err := readText(strings.NewReader("3 1 2\n9 8\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !d.Transactions[0].Items.Equal(New(1, 2, 3)) {
		t.Errorf("unsorted items survived: %v", d.Transactions[0].Items)
	}
	if d.Transactions[0].ID != 0 || d.Transactions[1].ID != 1 {
		t.Errorf("bad IDs: %d, %d", d.Transactions[0].ID, d.Transactions[1].ID)
	}
}

func TestReadErrors(t *testing.T) {
	for _, in := range []string{"1 x 3\n", "-4\n", "1 2 3.5\n"} {
		if _, err := readText(strings.NewReader(in)); err == nil {
			t.Errorf("readText(%q) succeeded, want error", in)
		}
	}
}

func TestBytes(t *testing.T) {
	d := sample()
	want := 0
	for _, tx := range d.Transactions {
		want += tx.Bytes()
	}
	if got := d.Bytes(); got != want {
		t.Errorf("Bytes = %d, want %d", got, want)
	}
}
