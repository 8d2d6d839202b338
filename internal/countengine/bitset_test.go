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
	remap   int // remap entries
	n       int
	stats   countengine.Stats
}

// maxModelItem bounds every item the model's tests use.
const maxModelItem = 128

// newModel mirrors NewPass: columns for the candidates' items, a remap table
// as wide as the vocabulary or the largest candidate item.
func newModel(k, numItems int, cands []itemset.Itemset) *columnModel {
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

// stream is CountBlock's bookkeeping: the model indexes as it streams.
func (m *columnModel) stream(txns []itemset.Transaction) {
	m.stats.Transactions += int64(len(txns))
	for _, t := range txns {
		m.stats.ItemTouches += int64(len(t.Items))
	}
	m.add(txns)
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
			var sample []itemset.Itemset
			for i := 0; i < len(cands); i += stride {
				sample = append(sample, cands[i])
			}
			cands = sample
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
func runAgainstModel(t *testing.T, eng countengine.Engine, m *columnModel, txns []itemset.Transaction, block int) {
	t.Helper()
	if got, want := eng.MemoryBytes(), m.memoryBytes(); got != want {
		t.Fatalf("MemoryBytes after NewPass = %d, model %d", got, want)
	}
	for lo := 0; lo < len(txns); lo += block {
		blk := txns[lo:min(lo+block, len(txns))]
		eng.CountBlock(blk, nil)
		m.stream(blk)
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
// and transaction items past the remap.  Each engine is built twice, from
// flat candidates and from headers.
func TestBitsetMatchesColumnModel(t *testing.T) {
	data, levels := bitsetWorkload(t)
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 63, 64, 65, 4095, 4096, 4097, 8193} {
		txns := data.Transactions[:n]
		for _, numItems := range []int{0, data.NumItems} {
			// numItems 0 sizes the remap by the candidates alone, so
			// transaction items above their largest fall past it.
			for k := 1; k <= 5; k++ {
				for _, ghosts := range []bool{false, true} {
					cands := withGhosts(rng, k, levels[k], ghosts)
					for _, block := range []int{1, 7, max(n, 1)} {
						name := fmt.Sprintf("n=%d/items=%d/k=%d/ghosts=%v/block=%d", n, numItems, k, ghosts, block)
						t.Run(name+"/streaming", func(t *testing.T) {
							viaFlat, viaHeaders := buildBoth(t, newBuilder(t, "bitset", numItems), k, cands)
							for _, eng := range []countengine.Engine{viaFlat, viaHeaders} {
								runAgainstModel(t, eng, newModel(k, numItems, cands), txns, block)
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
// between the pair matrix and the column kernel: whether each is whole
// ascending first-item rows (pairs) or has a hole, a repeat or an unordered
// row (kernel).
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
		{"complete-shuffled-repeated", withGhosts(rng, 2, c2.Itemsets(), false), false},
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

// TestBitsetPairMatrixMatchesColumnModel holds an engine over each
// pass-2 shape to the column model — counts, every Stats field and
// MemoryBytes before and after Counts — at the stream lengths, block sizes
// and remap widths of TestBitsetMatchesColumnModel, and pins which shapes
// count in the pair matrix: a complete C₂ and whole first-item rows do, a
// set with a hole, repeats or shuffled rows keeps the column kernel.
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
							runAgainstModel(t, eng, newModel(2, numItems, shape.cands), txns, block)
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

// TestBitsetConcurrentEngines counts with engines of one builder on
// concurrent goroutines, pass after pass; under -race it is the gate that
// such engines write nothing they share.
func TestBitsetConcurrentEngines(t *testing.T) {
	data, levels := bitsetWorkload(t)
	b := newBuilder(t, "bitset", data.NumItems)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) { //checkinv:allow rawchan real goroutines share one builder for the race detector; no processor program runs here
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
					m := newModel(k, data.NumItems, cands)
					eng.CountBlock(txns, nil)
					m.stream(txns)
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

// itemsIn is the number of items the transactions hold.
func itemsIn(txns []itemset.Transaction) (n int) {
	for _, t := range txns {
		n += len(t.Items)
	}
	return n
}

// countedIndex counts txns, in blocks of block, through a fresh bitset
// engine over every item of the vocabulary (k = 1): an index to carry from.
func countedIndex(t *testing.T, b countengine.Builder, levels map[int][]itemset.Itemset, txns []itemset.Transaction, block int) countengine.Carrier {
	t.Helper()
	f, err := itemset.FlatOf(1, levels[1])
	if err != nil {
		t.Fatal(err)
	}
	eng, err := b.NewPassFlat(f)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(txns); lo += block {
		eng.CountBlock(txns[lo:min(lo+block, len(txns))], nil)
	}
	eng.Counts()
	return eng.(countengine.Carrier)
}

// carriedChain carries prev, counted over txns (countedIndex), through k =
// 2…5 over the levels' candidates, shuffled and repeated: each carried
// engine is told the blocks' sizes, as the miner's skimmed scan tells it,
// and must equal the column model of a fresh engine over the same
// candidates and transactions — Stats and MemoryBytes before and after
// Counts, and the counts.  It reports with t.Errorf, so that goroutines may
// run it.
func carriedChain(t *testing.T, prev countengine.Carrier, numItems int, levels map[int][]itemset.Itemset, rng *rand.Rand, txns []itemset.Transaction, block int) {
	t.Helper()
	for k := 2; k <= 5; k++ {
		cands := withGhosts(rng, k, levels[k], false)
		f, err := itemset.FlatOf(k, cands)
		if err != nil {
			t.Error(err)
			return
		}
		eng, err := prev.Carry(f)
		if err != nil || eng == nil {
			t.Errorf("k=%d: Carry = %v, %v; want an engine", k, eng, err)
			return
		}
		m := newModel(k, numItems, cands)
		for lo := 0; lo < len(txns); lo += block {
			blk := txns[lo:min(lo+block, len(txns))]
			eng.Skim(len(blk), itemsIn(blk))
			m.stream(blk)
		}
		if err := eng.Skimmed(); err != nil {
			t.Errorf("k=%d: %v", k, err)
			return
		}
		if got, want := eng.Stats(), m.stats; got != want {
			t.Errorf("k=%d: Stats before Counts = %+v, model %+v", k, got, want)
			return
		}
		if got, want := eng.MemoryBytes(), m.memoryBytes(); got != want {
			t.Errorf("k=%d: MemoryBytes before Counts = %d, model %d", k, got, want)
			return
		}
		want := m.counts()
		if got := eng.Counts(); !reflect.DeepEqual(got, want) {
			t.Errorf("k=%d: Counts = %v, model %v", k, got, want)
			return
		}
		if got, want := eng.Stats(), m.stats; got != want {
			t.Errorf("k=%d: Stats after Counts = %+v, model %+v", k, got, want)
			return
		}
		if got, want := eng.MemoryBytes(), m.memoryBytes(); got != want {
			t.Errorf("k=%d: MemoryBytes after Counts = %d, model %d", k, got, want)
			return
		}
		prev = eng
	}
}

// TestBitsetCarriedMatchesColumnModel holds engines carried pass after pass
// over one index to the column model of fresh ones, at the stream lengths,
// remap widths and block sizes of TestBitsetMatchesColumnModel.
func TestBitsetCarriedMatchesColumnModel(t *testing.T) {
	data, levels := bitsetWorkload(t)
	rng := rand.New(rand.NewSource(4))
	for _, numItems := range []int{0, data.NumItems} {
		b := newBuilder(t, "bitset", numItems)
		for _, n := range []int{0, 1, 63, 64, 65, 4095, 4096, 4097, 8193} {
			for _, block := range []int{7, 1000, max(n, 1)} {
				t.Run(fmt.Sprintf("n=%d/items=%d/block=%d", n, numItems, block), func(t *testing.T) {
					txns := data.Transactions[:n]
					carriedChain(t, countedIndex(t, b, levels, txns, block), numItems, levels, rng, txns, block)
				})
			}
		}
	}
}

// TestBitsetCarryRefusals pins when Carry gives no engine — the index holds
// no column for an item of the candidates, the engine has not counted, it
// counted in the pair matrix, which keeps no rows, or there is nothing to
// count — and that a scan which is not the index's is an error, not a
// count.
func TestBitsetCarryRefusals(t *testing.T) {
	data, levels := bitsetWorkload(t)
	txns := data.Transactions[:5000]
	b := newBuilder(t, "bitset", data.NumItems)
	build := func(k int, cands []itemset.Itemset, count bool) countengine.Carrier {
		t.Helper()
		f, err := itemset.FlatOf(k, cands)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := b.NewPassFlat(f)
		if err != nil {
			t.Fatal(err)
		}
		eng.CountBlock(txns, nil)
		if count {
			eng.Counts()
		}
		return eng.(countengine.Carrier)
	}
	c3, err := itemset.FlatOf(3, levels[3])
	if err != nil {
		t.Fatal(err)
	}
	ghost, err := itemset.FlatOf(3, append(levels[3][:2:2], itemset.Itemset{0, 1, 70}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := apriori.Mine(data, apriori.Params{MinSupport: 0.03, MaxPasses: 1})
	if err != nil {
		t.Fatal(err)
	}
	f1 := make([]itemset.Itemset, len(res.Levels[0]))
	for i, f := range res.Levels[0] {
		f1[i] = f.Items
	}
	pairs := build(2, apriori.GenFlat(f1).Itemsets(), true)
	if !pairMatrix(pairs) {
		t.Fatal("the complete C2 does not count in the pair matrix")
	}
	for _, c := range []struct {
		name string
		prev countengine.Carrier
		next itemset.Flat
	}{
		{"item past the index", build(1, levels[1], true), ghost},
		{"not counted", build(1, levels[1], false), c3},
		{"pair matrix", pairs, c3},
		{"no candidates", build(1, levels[1], true), itemset.Flat{K: 3}},
	} {
		if eng, err := c.prev.Carry(c.next); eng != nil || err != nil {
			t.Errorf("%s: Carry = %v, %v; want none", c.name, eng, err)
		}
	}

	for _, skew := range []struct {
		name        string
		txns, items int
	}{{"a transaction short", -1, 0}, {"an item short", 0, -1}, {"an item over", 0, 1}} {
		eng, err := build(1, levels[1], true).Carry(c3)
		if err != nil || eng == nil {
			t.Fatalf("%s: Carry = %v, %v", skew.name, eng, err)
		}
		eng.Skim(len(txns)+skew.txns, itemsIn(txns)+skew.items)
		if err := eng.Skimmed(); err == nil {
			t.Errorf("%s: a skimmed scan that is not the index's was accepted", skew.name)
		}
	}
}

// TestBitsetCarriedRowsConcurrent pins that Carry and a carried engine's
// Counts write nothing to the index: under -race, two goroutines each carry
// the same counted engine's index through k = 2…5, three times over, in
// their own candidate orders, and every carried count must equal the column
// model.  A write to the index races with the other goroutine's reads here.
func TestBitsetCarriedRowsConcurrent(t *testing.T) {
	data, levels := bitsetWorkload(t)
	txns := data.Transactions
	first := countedIndex(t, newBuilder(t, "bitset", data.NumItems), levels, txns, 4096)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) { //checkinv:allow rawchan real goroutines share one counted index for the race detector; no processor program runs here
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for rep := 0; rep < 3; rep++ {
				carriedChain(t, first, data.NumItems, levels, rng, txns, 4096)
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkBitsetPassDeep is one rank's passes 3 to 9 of the mine-ooc
// workload: the C_k of the items frequent at 2 % in 50 000 T12.I4
// transactions of 300 items (200 patterns), each streamed in blocks of
// 4 096 and counted.  fresh builds every pass's index from its stream, as
// the serial miner does; carried builds pass 3's and carries it on, each
// later pass told only the blocks' sizes, as CD's one-row passes run.
func BenchmarkBitsetPassDeep(b *testing.B) {
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
	res, err := apriori.Mine(data, apriori.Params{MinSupport: 0.02})
	if err != nil {
		b.Fatal(err)
	}
	var passes []itemset.Flat
	for k := 3; k <= 9 && k-2 < len(res.Levels); k++ {
		prev := make([]itemset.Itemset, len(res.Levels[k-2]))
		for i, f := range res.Levels[k-2] {
			prev[i] = f.Items
		}
		if c := apriori.GenFlat(prev); c.Len() > 0 {
			passes = append(passes, c)
		}
	}
	if len(passes) < 5 {
		b.Fatalf("only %d passes from pass 3", len(passes))
	}
	blocks := func(fn func(blk []itemset.Transaction)) {
		for lo := 0; lo < len(data.Transactions); lo += 4096 {
			fn(data.Transactions[lo:min(lo+4096, len(data.Transactions))])
		}
	}
	builder := newBuilder(b, "bitset", data.NumItems)
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, c := range passes {
				eng, err := builder.NewPassFlat(c)
				if err != nil {
					b.Fatal(err)
				}
				blocks(func(blk []itemset.Transaction) { eng.CountBlock(blk, nil) })
				eng.Counts()
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(data.Transactions)), "ns/txn")
	})
	b.Run("carried", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			first, err := builder.NewPassFlat(passes[0])
			if err != nil {
				b.Fatal(err)
			}
			eng := first.(countengine.Carrier)
			blocks(func(blk []itemset.Transaction) { eng.CountBlock(blk, nil) })
			eng.Counts()
			for _, c := range passes[1:] {
				if eng, err = eng.Carry(c); err != nil || eng == nil {
					b.Fatalf("Carry = %v, %v", eng, err)
				}
				blocks(func(blk []itemset.Transaction) { eng.Skim(len(blk), itemsIn(blk)) })
				if err := eng.Skimmed(); err != nil {
					b.Fatal(err)
				}
				eng.Counts()
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(data.Transactions)), "ns/txn")
	})
}
