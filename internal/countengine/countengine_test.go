package countengine_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"parapriori/internal/apriori"
	"parapriori/internal/bitmap"
	"parapriori/internal/countengine"
	"parapriori/internal/datagen"
	"parapriori/internal/hashtree"
	"parapriori/internal/itemset"
)

func testData(t *testing.T) *itemset.Dataset {
	t.Helper()
	p := datagen.Defaults()
	p.NumTransactions = 600
	p.NumItems = 120
	p.NumPatterns = 80
	p.AvgTxnLen = 10
	p.AvgPatternLen = 4
	p.Seed = 11
	d, err := datagen.Generate(p)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return d
}

// candLevels derives the real candidate sets C_2..C_k of the workload via
// the default miner, so the backends are exercised on the shapes apriori_gen
// actually produces.
func candLevels(t *testing.T, data *itemset.Dataset) map[int][]itemset.Itemset {
	t.Helper()
	res, err := apriori.Mine(data, apriori.Params{MinSupport: 0.02})
	if err != nil {
		t.Fatalf("mine: %v", err)
	}
	out := make(map[int][]itemset.Itemset)
	for k := 2; k-2 < len(res.Levels); k++ {
		prev := res.Levels[k-2]
		sets := make([]itemset.Itemset, len(prev))
		for i, f := range prev {
			sets[i] = f.Items
		}
		if cands := apriori.Gen(sets); len(cands) > 0 {
			out[k] = cands
		}
	}
	if len(out) < 2 {
		t.Fatalf("workload too thin: candidate levels %d", len(out))
	}
	return out
}

func newBuilder(t testing.TB, name string, numItems int) countengine.Builder {
	t.Helper()
	b, err := countengine.New(name, countengine.Config{NumItems: numItems})
	if err != nil {
		t.Fatalf("New(%q): %v", name, err)
	}
	return b
}

// buildBoth builds b's engine over the size-k candidates twice: from the flat
// form, as the miners do, and from headers through NewPass.
func buildBoth(t *testing.T, b countengine.Builder, k int, cands []itemset.Itemset) (viaFlat, viaHeaders countengine.Engine) {
	t.Helper()
	flat, err := itemset.FlatOf(k, cands)
	if err != nil {
		t.Fatalf("FlatOf(k=%d): %v", k, err)
	}
	if viaFlat, err = b.NewPassFlat(flat); err != nil {
		t.Fatalf("%s.NewPassFlat(k=%d): %v", b.Name(), k, err)
	}
	if viaHeaders, err = b.NewPass(k, cands); err != nil {
		t.Fatalf("%s.NewPass(k=%d): %v", b.Name(), k, err)
	}
	return viaFlat, viaHeaders
}

// sameEngine requires two engines built over the same candidates, one from
// each form, to agree on Counts, Stats and MemoryBytes.
func sameEngine(t *testing.T, name string, viaFlat, viaHeaders countengine.Engine) {
	t.Helper()
	if got, want := viaHeaders.Counts(), viaFlat.Counts(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: built from headers it counts %v, from flat %v", name, got, want)
	}
	if got, want := viaHeaders.Stats(), viaFlat.Stats(); got != want {
		t.Fatalf("%s: built from headers its Stats are %+v, from flat %+v", name, got, want)
	}
	if got, want := viaHeaders.MemoryBytes(), viaFlat.MemoryBytes(); got != want {
		t.Fatalf("%s: built from headers it takes %d bytes, from flat %d", name, got, want)
	}
}

// countAll counts the dataset through b's engine over the candidates, built
// from flat and from headers, which must agree; it returns the counts.
func countAll(t *testing.T, b countengine.Builder, k int, cands []itemset.Itemset, data *itemset.Dataset, filter *bitmap.Bitmap) []int64 {
	t.Helper()
	viaFlat, viaHeaders := buildBoth(t, b, k, cands)
	for _, eng := range []countengine.Engine{viaFlat, viaHeaders} {
		eng.CountBlock(data.Transactions, filter)
	}
	sameEngine(t, fmt.Sprintf("%s k=%d", b.Name(), k), viaFlat, viaHeaders)
	return viaFlat.Counts()
}

func TestRegistry(t *testing.T) {
	want := []string{"bitset", "hashtree", "trie"}
	if got := countengine.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for _, name := range append(want, "") {
		if !countengine.Known(name) {
			t.Errorf("Known(%q) = false", name)
		}
	}
	if countengine.Known("btree") {
		t.Error("Known(btree) = true")
	}
	if _, err := countengine.New("btree", countengine.Config{}); err == nil {
		t.Error("New(btree) succeeded")
	}
	b, err := countengine.New("", countengine.Config{})
	if err != nil {
		t.Fatalf("New(\"\"): %v", err)
	}
	if b.Name() != countengine.Default {
		t.Errorf("default builder is %q, want %q", b.Name(), countengine.Default)
	}
}

func TestBackendsCountIdentically(t *testing.T) {
	data := testData(t)
	levels := candLevels(t, data)
	for k, cands := range levels {
		base := countAll(t, newBuilder(t, "hashtree", data.NumItems), k, cands, data, nil)
		for _, name := range countengine.Names() {
			if got := countAll(t, newBuilder(t, name, data.NumItems), k, cands, data, nil); !reflect.DeepEqual(got, base) {
				t.Errorf("k=%d: %s counts differ from hashtree", k, name)
			}
		}
	}
}

// TestShuffledCandidateOrder feeds the candidates in a non-sorted order —
// the shape IDD rows receive from the bin-packing partitioner — and checks
// every backend returns counts in the input order.
func TestShuffledCandidateOrder(t *testing.T) {
	data := testData(t)
	levels := candLevels(t, data)
	for k, cands := range levels {
		shuffled := make([]itemset.Itemset, len(cands))
		for i := range cands {
			shuffled[i] = cands[(i*7+3)%len(cands)]
		}
		base := countAll(t, newBuilder(t, "hashtree", data.NumItems), k, shuffled, data, nil)
		for _, name := range countengine.Names() {
			if got := countAll(t, newBuilder(t, name, data.NumItems), k, shuffled, data, nil); !reflect.DeepEqual(got, base) {
				t.Errorf("k=%d shuffled: %s counts differ from hashtree", k, name)
			}
		}
	}
}

// TestRootFilter exercises the seam's filter contract: the rootFilter is a
// work-pruning hint that is only guaranteed count-preserving when every
// candidate the engine holds passes it on its first item — the grid's
// actual usage, where a row's engine holds exactly its own bitmap-passing
// candidates.  Under that contract, filtered counts must equal unfiltered
// counts for every backend (the bitset ignores the filter outright).
func TestRootFilter(t *testing.T) {
	data := testData(t)
	levels := candLevels(t, data)
	reject := func(it itemset.Item) bool { return it%3 != 0 }
	for k, cands := range levels {
		var passing []itemset.Itemset
		filter := bitmap.New(data.NumItems)
		for _, c := range cands {
			if reject(c[0]) {
				passing = append(passing, c)
				filter.Set(int(c[0]))
			}
		}
		if len(passing) == 0 {
			continue
		}
		want := countAll(t, newBuilder(t, "hashtree", data.NumItems), k, passing, data, nil)
		for _, name := range countengine.Names() {
			if got := countAll(t, newBuilder(t, name, data.NumItems), k, passing, data, filter); !reflect.DeepEqual(got, want) {
				t.Errorf("k=%d: %s counts under rootFilter differ from unfiltered", k, name)
			}
		}
	}
}

// TestHashtreeAdapterStatsRoundTrip pins the compatibility contract: the
// adapter's abstract counters map exactly onto the tree's own, so the
// virtual time charged through the seam is bit-identical to charging the
// tree directly.
func TestHashtreeAdapterStatsRoundTrip(t *testing.T) {
	data := testData(t)
	levels := candLevels(t, data)
	for k, cands := range levels {
		flat, err := itemset.FlatOf(k, cands)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := hashtree.NewFlat(flat, hashtree.Config{})
		if err != nil {
			t.Fatalf("hashtree.NewFlat: %v", err)
		}
		for _, txn := range data.Transactions {
			tree.Subset(txn.Items, nil)
		}

		eng, err := newBuilder(t, "hashtree", data.NumItems).NewPass(k, cands)
		if err != nil {
			t.Fatalf("NewPass: %v", err)
		}
		eng.CountBlock(data.Transactions, nil)
		if got, want := eng.Stats().TreeStats(), tree.Stats(); got != want {
			t.Errorf("k=%d: adapter stats %+v, direct tree stats %+v", k, got, want)
		}
		if got, want := eng.MemoryBytes(), tree.MemoryBytes(); got != want {
			t.Errorf("k=%d: adapter memory %d, tree memory %d", k, got, want)
		}
	}
}

func TestTrieEdgeCases(t *testing.T) {
	txns := []itemset.Transaction{
		{ID: 0, Items: itemset.New(1, 2, 3)},
		{ID: 1, Items: itemset.New(2, 3, 4)},
		{ID: 2, Items: itemset.New(1, 3)},
	}
	data := itemset.NewDataset(txns)
	b := newBuilder(t, "trie", data.NumItems)

	// Empty candidate set.
	eng, err := b.NewPass(2, nil)
	if err != nil {
		t.Fatalf("empty NewPass: %v", err)
	}
	eng.CountBlock(txns, nil)
	if got := eng.Counts(); len(got) != 0 {
		t.Errorf("empty counts = %v", got)
	}

	// k=1 candidates (the seam allows them even though the miners use
	// array counting for pass 1).
	ones := []itemset.Itemset{itemset.New(3), itemset.New(1)}
	base := countAll(t, newBuilder(t, "hashtree", data.NumItems), 1, ones, data, nil)
	if got := countAll(t, b, 1, ones, data, nil); !reflect.DeepEqual(got, base) {
		t.Errorf("k=1 counts = %v, want %v", got, base)
	}

	// Duplicate candidates each keep their own count slot.
	dups := []itemset.Itemset{itemset.New(1, 3), itemset.New(1, 3)}
	if got := countAll(t, b, 2, dups, data, nil); !reflect.DeepEqual(got, []int64{2, 2}) {
		t.Errorf("duplicate counts = %v, want [2 2]", got)
	}

	// Malformed candidates are rejected like the hash tree rejects them.
	if _, err := b.NewPass(2, []itemset.Itemset{{3, 1}}); err == nil {
		t.Error("unsorted candidate accepted")
	}
	if _, err := b.NewPass(3, []itemset.Itemset{itemset.New(1, 2)}); err == nil {
		t.Error("wrong-size candidate accepted")
	}
}

// TestCheaperCountingOps pins the perf claim behind the new backends on a
// counting-heavy workload: the trie spends fewer containment checks than
// the hash tree (a reached trie leaf IS a match, so CandChecks == matches),
// and the bitset replaces subset enumeration with word operations entirely.
func TestCheaperCountingOps(t *testing.T) {
	data := testData(t)
	levels := candLevels(t, data)
	for k, cands := range levels {
		stats := make(map[string]countengine.Stats)
		for _, name := range countengine.Names() {
			eng, err := newBuilder(t, name, data.NumItems).NewPass(k, cands)
			if err != nil {
				t.Fatalf("%s.NewPass: %v", name, err)
			}
			eng.CountBlock(data.Transactions, nil)
			eng.Counts()
			stats[name] = eng.Stats()
		}
		if trie, tree := stats["trie"], stats["hashtree"]; trie.CandChecks >= tree.CandChecks {
			t.Errorf("k=%d: trie CandChecks %d not below hashtree %d", k, trie.CandChecks, tree.CandChecks)
		}
		bs := stats["bitset"]
		if bs.CandChecks != 0 || bs.NodeSteps != 0 {
			t.Errorf("k=%d: bitset spent subset ops (checks=%d steps=%d)", k, bs.CandChecks, bs.NodeSteps)
		}
		if bs.WordOps == 0 {
			t.Errorf("k=%d: bitset spent no word ops", k)
		}
	}
}

// TestMalformedCandidatesRefused builds every backend over candidate sets
// that are not sorted sets of non-negative items.  Each must return the
// shared check's error, never panic on the item it cannot index; a
// well-formed set of the same size must build.
func TestMalformedCandidatesRefused(t *testing.T) {
	cases := []struct {
		name  string
		cands itemset.Flat
		ok    bool
	}{
		{"negative pair", itemset.Flat{K: 2, Items: []itemset.Item{-3, 4}}, false},
		{"negative second of three", itemset.Flat{K: 3, Items: []itemset.Item{1, 2, 5, -1, 2, 3}}, false},
		{"descending pair", itemset.Flat{K: 2, Items: []itemset.Item{1, 2, 5, 4}}, false},
		{"repeated item", itemset.Flat{K: 3, Items: []itemset.Item{1, 1, 2}}, false},
		{"negative single", itemset.Flat{K: 1, Items: []itemset.Item{0, -2}}, false},
		{"sorted pairs", itemset.Flat{K: 2, Items: []itemset.Item{0, 4, 1, 2}}, true},
		{"sorted triple", itemset.Flat{K: 3, Items: []itemset.Item{0, 4, 9}}, true},
	}
	for _, name := range countengine.Names() {
		for _, c := range cases {
			t.Run(name+"/"+c.name, func(t *testing.T) {
				_, err := newBuilder(t, name, 0).NewPassFlat(c.cands)
				switch {
				case c.ok && err != nil:
					t.Fatalf("refused a sorted set: %v", err)
				case !c.ok && (err == nil || !strings.Contains(err.Error(), "is not a sorted set of non-negative items")):
					t.Fatalf("err = %v, want the shared check's", err)
				}
			})
		}
	}
}
