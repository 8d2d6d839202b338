package countengine_test

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"parapriori/internal/apriori"
	"parapriori/internal/countengine"
	"parapriori/internal/datagen"
	"parapriori/internal/itemset"
	"parapriori/internal/partition"
)

// columnModel is the bitset engine as the cost model prices it, written the
// way the engine was before its paged layout: one TID column per indexed
// item, grown a word at a time to hold its last set bit; a candidate's
// support is the popcount of its columns ANDed up to the shortest one,
// charged k words per step.
type columnModel struct {
	k       int
	cands   []itemset.Itemset
	indexed []bool // which items own a column, by item
	cols    [][]uint64
	remap   int // streaming remap entries; 0 in prepared mode
	n       int
	stats   countengine.Stats
}

// maxModelItem bounds every item the model's tests use.
const maxModelItem = 128

// newStreamingModel mirrors NewPass without Prepare: columns for the
// candidates' items, a remap table as wide as the vocabulary or the largest
// candidate item.
func newStreamingModel(k, numItems int, cands []itemset.Itemset) *columnModel {
	m := &columnModel{k: k, cands: cands, indexed: make([]bool, maxModelItem), cols: make([][]uint64, maxModelItem)}
	m.remap = numItems
	for _, c := range cands {
		for _, it := range c {
			m.remap = max(m.remap, int(it)+1)
			if !m.indexed[it] {
				m.indexed[it] = true
				m.stats.BuildOps++
			}
		}
	}
	return m
}

// newPreparedModel mirrors Prepare then NewPass: every item of the dataset
// owns a column, built once.
func newPreparedModel(k int, data *itemset.Dataset, cands []itemset.Itemset) *columnModel {
	m := &columnModel{k: k, cands: cands, indexed: make([]bool, maxModelItem), cols: make([][]uint64, maxModelItem)}
	for i := range m.indexed {
		m.indexed[i] = true
	}
	m.add(data.Transactions)
	return m
}

func (m *columnModel) add(txns []itemset.Transaction) {
	for _, t := range txns {
		w, bit := m.n>>6, uint64(1)<<(m.n&63)
		m.n++
		for _, it := range t.Items {
			if !m.indexed[it] {
				continue
			}
			for len(m.cols[it]) <= w {
				m.cols[it] = append(m.cols[it], 0)
			}
			m.cols[it][w] |= bit
		}
	}
}

// stream is CountBlock's bookkeeping: the streaming model also indexes.
func (m *columnModel) stream(txns []itemset.Transaction, streaming bool) {
	m.stats.Transactions += int64(len(txns))
	if streaming {
		for _, t := range txns {
			m.stats.ItemTouches += int64(len(t.Items))
		}
		m.add(txns)
	}
}

func (m *columnModel) counts() []int64 {
	out := make([]int64, len(m.cands))
	for i, c := range m.cands {
		refs := make([][]uint64, 0, len(c))
		nw := -1
		for _, it := range c {
			col := m.cols[it]
			if nw < 0 || len(col) < nw {
				nw = len(col)
			}
			refs = append(refs, col)
		}
		if len(refs) == 0 || nw <= 0 {
			continue
		}
		for w := 0; w < nw; w++ {
			v := refs[0][w]
			for _, col := range refs[1:] {
				v &= col[w]
			}
			out[i] += int64(bits.OnesCount64(v))
		}
		m.stats.WordOps += int64(nw * len(refs))
	}
	return out
}

func (m *columnModel) memoryBytes() int {
	bytes := len(m.cands)*8 + m.remap*4
	for _, col := range m.cols {
		bytes += len(col) * 8
	}
	return bytes
}

// bitsetWorkload is a dense-enough T10.I5 stream to reach k = 5, with item
// 3 struck from every transaction so some candidate items never occur.
func bitsetWorkload(t *testing.T) (*itemset.Dataset, map[int][]itemset.Itemset) {
	t.Helper()
	p := datagen.Defaults()
	p.NumTransactions = 8193
	p.NumItems = 60
	p.NumPatterns = 20
	p.AvgTxnLen = 10
	p.AvgPatternLen = 5
	p.Seed = 5
	data, err := datagen.Generate(p)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	for i := range data.Transactions {
		items := data.Transactions[i].Items[:0:0]
		for _, it := range data.Transactions[i].Items {
			if it != 3 {
				items = append(items, it)
			}
		}
		data.Transactions[i].Items = items
	}
	res, err := apriori.Mine(data, apriori.Params{MinSupport: 0.03})
	if err != nil {
		t.Fatalf("mine: %v", err)
	}
	levels := map[int][]itemset.Itemset{}
	for it := 0; it < data.NumItems; it++ {
		levels[1] = append(levels[1], itemset.Itemset{itemset.Item(it)})
	}
	for k := 2; k <= 5; k++ {
		if k-2 >= len(res.Levels) {
			t.Fatalf("workload too thin: no level %d", k-1)
		}
		prev := make([]itemset.Itemset, len(res.Levels[k-2]))
		for i, f := range res.Levels[k-2] {
			prev[i] = f.Items
		}
		cands := apriori.Gen(prev)
		if len(cands) == 0 {
			t.Fatalf("workload too thin: C_%d is empty", k)
		}
		if stride := len(cands)/150 + 1; stride > 1 {
			var kept []itemset.Itemset
			for i := 0; i < len(cands); i += stride {
				kept = append(kept, cands[i])
			}
			cands = kept
		}
		levels[k] = cands
	}
	return data, levels
}

// withGhosts returns the level shuffled, its first few candidates repeated,
// and — when ghosts — candidates holding items that never occur: item 3
// (struck from the stream) and 70 (past the vocabulary).
func withGhosts(rng *rand.Rand, k int, cands []itemset.Itemset, ghosts bool) []itemset.Itemset {
	out := append([]itemset.Itemset(nil), cands...)
	out = append(out, cands[:min(3, len(cands))]...)
	if ghosts {
		for _, c := range cands[:min(4, len(cands))] {
			out = append(out, append(c[:k-1:k-1], 70))
		}
		ghost := itemset.Itemset{3}
		for j := 1; j < k; j++ {
			ghost = append(ghost, itemset.Item(70+j))
		}
		out = append(out, ghost)
		if k > 1 && cands[0][0] > 3 {
			out = append(out, append(itemset.Itemset{3}, cands[0][:k-1]...))
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// runAgainstModel counts txns through eng in blocks of the given size and
// requires the model's MemoryBytes after NewPass, after the last block and
// after Counts, and its Stats and counts.
func runAgainstModel(t *testing.T, eng countengine.Engine, m *columnModel, txns []itemset.Transaction, block int, streaming bool) {
	t.Helper()
	if got, want := eng.MemoryBytes(), m.memoryBytes(); got != want {
		t.Fatalf("MemoryBytes after NewPass = %d, model %d", got, want)
	}
	for lo := 0; lo < len(txns); lo += block {
		blk := txns[lo:min(lo+block, len(txns))]
		eng.CountBlock(blk, nil)
		m.stream(blk, streaming)
	}
	if got, want := eng.Stats(), m.stats; got != want {
		t.Fatalf("Stats before Counts = %+v, model %+v", got, want)
	}
	if got, want := eng.MemoryBytes(), m.memoryBytes(); got != want {
		t.Fatalf("MemoryBytes before Counts = %d, model %d", got, want)
	}
	want := m.counts()
	if got := eng.Counts(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Counts = %v, model %v", got, want)
	}
	if got, want := eng.Stats(), m.stats; got != want {
		t.Fatalf("Stats after Counts = %+v, model %+v", got, want)
	}
	if got, want := eng.MemoryBytes(), m.memoryBytes(); got != want {
		t.Fatalf("MemoryBytes after Counts = %d, model %d", got, want)
	}
	if got := eng.Counts(); !reflect.DeepEqual(got, want) {
		t.Fatalf("second Counts = %v, model %v", got, want)
	}
}

// TestBitsetMatchesColumnModel holds the paged engine to the column model it
// is charged as — counts, every Stats field and MemoryBytes — over stream
// lengths around the word and page boundaries, several block sizes, k = 1…5,
// both modes, and transaction items past the streaming remap.  Each engine
// is built twice, from flat candidates and from headers.
func TestBitsetMatchesColumnModel(t *testing.T) {
	data, levels := bitsetWorkload(t)
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 63, 64, 65, 4095, 4096, 4097, 8193} {
		txns := data.Transactions[:n]
		for _, numItems := range []int{0, data.NumItems} {
			// numItems 0 sizes the streaming remap by the candidates alone,
			// so transaction items above their largest fall past it; the
			// prepared index then takes its span from the stream itself.
			prepared := &itemset.Dataset{Transactions: txns, NumItems: numItems}
			pb, err := countengine.New("bitset", countengine.Config{NumItems: numItems})
			if err != nil {
				t.Fatal(err)
			}
			pb.(countengine.DatasetPreparer).Prepare(prepared)
			for k := 1; k <= 5; k++ {
				for _, ghosts := range []bool{false, true} {
					cands := withGhosts(rng, k, levels[k], ghosts)
					for _, block := range []int{1, 7, max(n, 1)} {
						name := fmt.Sprintf("n=%d/items=%d/k=%d/ghosts=%v/block=%d", n, numItems, k, ghosts, block)
						t.Run(name+"/streaming", func(t *testing.T) {
							viaFlat, viaHeaders := buildBoth(t, newBuilder(t, "bitset", numItems), k, cands)
							for _, eng := range []countengine.Engine{viaFlat, viaHeaders} {
								runAgainstModel(t, eng, newStreamingModel(k, numItems, cands), txns, block, true)
							}
							sameEngine(t, name, viaFlat, viaHeaders)
						})
						t.Run(name+"/prepared", func(t *testing.T) {
							viaFlat, viaHeaders := buildBoth(t, pb, k, cands)
							for _, eng := range []countengine.Engine{viaFlat, viaHeaders} {
								runAgainstModel(t, eng, newPreparedModel(k, prepared, cands), txns, block, false)
							}
							sameEngine(t, name, viaFlat, viaHeaders)
						})
					}
				}
			}
		}
	}
}

// pairShapes are the k = 2 candidate sets of the workload's F₁ that decide
// between the pair matrix and the column kernel: whether each is dense over
// its own items (pairs) or has a hole (kernel).
func pairShapes(t testing.TB, data *itemset.Dataset) []struct {
	name  string
	cands []itemset.Itemset
	pairs bool
} {
	res, err := apriori.Mine(data, apriori.Params{MinSupport: 0.03, MaxPasses: 1})
	if err != nil {
		t.Fatal(err)
	}
	f1 := make([]itemset.Itemset, len(res.Levels[0]))
	for i, f := range res.Levels[0] {
		f1[i] = f.Items
	}
	c2 := apriori.GenFlat(f1)
	packed := partition.BinPackFlat(c2, 3, 0)
	if len(packed.GroupsOf[1]) < 2 {
		t.Fatal("bin-packed share 1 holds fewer than two rows")
	}
	var dhp []itemset.Itemset
	for i := 0; i < c2.Len(); i++ {
		if c := c2.At(i); (c[0]*7+c[1])%5 != 0 {
			dhp = append(dhp, c)
		}
	}
	rng := rand.New(rand.NewSource(9))
	return []struct {
		name  string
		cands []itemset.Itemset
		pairs bool
	}{
		{"complete", c2.Itemsets(), true},
		{"complete-shuffled-repeated", withGhosts(rng, 2, c2.Itemsets(), false), true},
		{"binpacked-rows", packed.Share(1).Itemsets(), true},
		{"complete-ghosts", withGhosts(rng, 2, c2.Itemsets(), true), false},
		{"roundrobin", partition.RoundRobin(c2, 3)[1].Itemsets(), false},
		{"dhp-filtered", dhp, false},
	}
}

// pairMatrix reports whether a bitset engine counts in the pair matrix.  The
// method lives in export_test.go; checkinv type-checks this package against
// countengine's non-test sources, where it does not exist, so it is reached
// through an assertion instead of named statically.
func pairMatrix(e countengine.Engine) bool {
	pm, ok := e.(interface{ PairMatrix() bool })
	return ok && pm.PairMatrix()
}

// TestBitsetPairMatrixMatchesColumnModel holds a streaming engine over each
// pass-2 shape to the column model — counts, every Stats field and
// MemoryBytes before and after Counts — at the stream lengths, block sizes
// and remap widths of TestBitsetMatchesColumnModel, and pins which shapes
// count in the pair matrix: a complete C₂ and whole first-item rows do, a
// set with a hole keeps the column kernel.
func TestBitsetPairMatrixMatchesColumnModel(t *testing.T) {
	data, _ := bitsetWorkload(t)
	for _, shape := range pairShapes(t, data) {
		for _, n := range []int{0, 1, 63, 64, 65, 4095, 4096, 4097, 8193} {
			txns := data.Transactions[:n]
			for _, numItems := range []int{0, data.NumItems} {
				for _, block := range []int{1, 7, 1000, max(n, 1)} {
					name := fmt.Sprintf("%s/n=%d/items=%d/block=%d", shape.name, n, numItems, block)
					t.Run(name, func(t *testing.T) {
						viaFlat, viaHeaders := buildBoth(t, newBuilder(t, "bitset", numItems), 2, shape.cands)
						for _, eng := range []countengine.Engine{viaFlat, viaHeaders} {
							if got := pairMatrix(eng); got != shape.pairs {
								t.Fatalf("pair matrix = %v, want %v", got, shape.pairs)
							}
							runAgainstModel(t, eng, newStreamingModel(2, numItems, shape.cands), txns, block, true)
						}
						sameEngine(t, name, viaFlat, viaHeaders)
					})
				}
			}
		}
	}
}

// BenchmarkBitsetPass2 is one rank's second pass of the mine-ooc workload:
// CD's complete C₂ over the items frequent at 2 % in 50 000 T12.I4
// transactions of 300 items (200 patterns), streamed through a bitset
// engine in blocks of 4 096 and counted.
func BenchmarkBitsetPass2(b *testing.B) {
	p := datagen.Defaults()
	p.NumTransactions = 50000
	p.NumItems = 300
	p.NumPatterns = 200
	p.AvgTxnLen = 12
	p.AvgPatternLen = 4
	p.Seed = 7
	data, err := datagen.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	res, err := apriori.Mine(data, apriori.Params{MinSupport: 0.02, MaxPasses: 1})
	if err != nil {
		b.Fatal(err)
	}
	f1 := make([]itemset.Itemset, len(res.Levels[0]))
	for i, f := range res.Levels[0] {
		f1[i] = f.Items
	}
	c2 := apriori.GenFlat(f1)
	builder := newBuilder(b, "bitset", data.NumItems)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := builder.NewPassFlat(c2)
		if err != nil {
			b.Fatal(err)
		}
		for lo := 0; lo < len(data.Transactions); lo += 4096 {
			eng.CountBlock(data.Transactions[lo:min(lo+4096, len(data.Transactions))], nil)
		}
		eng.Counts()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(data.Transactions)), "ns/txn")
}

// TestBitsetConcurrentEngines counts with streaming engines of one builder
// on concurrent goroutines, pass after pass, so rows go back to the shared
// pool and come out of it dirty on another engine; under -race this is the
// pool's gate.
func TestBitsetConcurrentEngines(t *testing.T) {
	data, levels := bitsetWorkload(t)
	b := newBuilder(t, "bitset", data.NumItems)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) { //checkinv:allow rawchan real goroutines share one builder's row pool for the race detector; no processor program runs here
			defer wg.Done()
			txns := data.Transactions[g*1000:]
			for k := 1; k <= 5; k++ {
				for rep := 0; rep < 3; rep++ {
					cands := levels[k]
					if g == 1 {
						cands = cands[len(cands)/2:]
					}
					eng, err := b.NewPass(k, cands)
					if err != nil {
						t.Error(err)
						return
					}
					m := newStreamingModel(k, data.NumItems, cands)
					eng.CountBlock(txns, nil)
					m.stream(txns, true)
					if got, want := eng.Counts(), m.counts(); !reflect.DeepEqual(got, want) {
						t.Errorf("goroutine %d k=%d: counts differ from the column model", g, k)
					}
					if got, want := eng.Stats(), m.stats; got != want {
						t.Errorf("goroutine %d k=%d: Stats %+v, model %+v", g, k, got, want)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
