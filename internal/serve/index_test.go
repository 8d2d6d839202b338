package serve

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"parapriori/internal/apriori"
	"parapriori/internal/datagen"
	"parapriori/internal/itemset"
	"parapriori/internal/rules"
)

// synthRules builds a deterministic synthetic rule set: nRules distinct
// (antecedent, consequent) pairs over nItems items with plausible measures.
// Measures are drawn independently, which produces plenty of rank ties to
// exercise the deterministic tie-breaking.
func synthRules(nRules, nItems int, seed int64) []rules.Rule {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool, nRules)
	out := make([]rules.Rule, 0, nRules)
	for attempts := 0; len(out) < nRules; attempts++ {
		if attempts > 200*nRules {
			panic(fmt.Sprintf("synthRules: item space of %d too small for %d distinct rules", nItems, nRules))
		}
		raw := make([]itemset.Item, 1+rng.Intn(3))
		for i := range raw {
			raw[i] = itemset.Item(rng.Intn(nItems))
		}
		ant := itemset.New(raw...)
		cons := itemset.New(itemset.Item(rng.Intn(nItems)))
		if len(ant) == 0 || ant.Contains(cons[0]) {
			continue
		}
		key := ant.Key() + "|" + cons.Key()
		if seen[key] {
			continue
		}
		seen[key] = true
		conf := float64(1+rng.Intn(20)) / 20 // coarse grid → ties
		sup := float64(1+rng.Intn(50)) / 500
		out = append(out, rules.Rule{
			Antecedent: ant,
			Consequent: cons,
			Count:      int64(1 + rng.Intn(1000)),
			Support:    sup,
			Confidence: conf,
			Lift:       float64(1+rng.Intn(30)) / 10,
			Leverage:   sup - sup*conf,
		})
	}
	return out
}

// oracle is the brute-force subset scan Recommend must match: test every
// rule's antecedent against the basket, drop rules whose consequent is
// already fully in the basket, rank, truncate.
func oracle(rs []rules.Rule, basket itemset.Itemset, k int) []rules.Rule {
	var matches []rules.Rule
	for _, r := range rs {
		if basket.ContainsAll(r.Antecedent) && !basket.ContainsAll(r.Consequent) {
			matches = append(matches, r)
		}
	}
	return RankTruncate(matches, k)
}

func randomBasket(rng *rand.Rand, nItems, maxLen int) itemset.Itemset {
	raw := make([]itemset.Item, 1+rng.Intn(maxLen))
	for i := range raw {
		raw[i] = itemset.Item(rng.Intn(nItems))
	}
	return itemset.New(raw...)
}

// remapItems rewrites every item of a rule set through f, re-sorting the
// itemsets (f need not be monotone).
func remapItems(rs []rules.Rule, f func(itemset.Item) itemset.Item) []rules.Rule {
	remap := func(s itemset.Itemset) itemset.Itemset {
		out := make([]itemset.Item, len(s))
		for i, it := range s {
			out[i] = f(it)
		}
		return itemset.New(out...)
	}
	out := make([]rules.Rule, len(rs))
	for i, r := range rs {
		r.Antecedent, r.Consequent = remap(r.Antecedent), remap(r.Consequent)
		out[i] = r
	}
	return out
}

// sparseItem scatters the small ids synthRules draws over the whole int32
// range: negative, past 2²⁰, and next to both ends.
func sparseItem(it itemset.Item) itemset.Item {
	switch it % 4 {
	case 0:
		return -7 - 1000*it
	case 1:
		return 1<<20 + 4099*it
	case 2:
		return math.MaxInt32 - it
	default:
		return math.MinInt32 + it
	}
}

// heavyRules is a rule set one basket fires more than a thousand rules of:
// every 1-, 2- and 3-item antecedent over items 0..11, each recommending
// the four items 100..103 — 298 antecedents, 1192 rules — with measures on
// a coarse grid, so ties abound.  heavyBasket is that basket.
func heavyRules() (rs []rules.Rule, heavyBasket itemset.Itemset) {
	rng := rand.New(rand.NewSource(99))
	emit := func(ant ...itemset.Item) {
		for c := itemset.Item(100); c < 104; c++ {
			rs = append(rs, rules.Rule{
				Antecedent: itemset.New(ant...),
				Consequent: itemset.New(c),
				Count:      int64(1 + rng.Intn(50)),
				Support:    float64(1+rng.Intn(5)) / 50,
				Confidence: float64(1+rng.Intn(10)) / 10,
				Lift:       float64(1+rng.Intn(4)) / 2,
			})
		}
	}
	const n = 12
	for a := itemset.Item(0); a < n; a++ {
		emit(a)
		for b := a + 1; b < n; b++ {
			emit(a, b)
			for c := b + 1; c < n; c++ {
				emit(a, b, c)
			}
		}
		heavyBasket = append(heavyBasket, a)
	}
	return rs, heavyBasket
}

// minedRules mines a datagen set (apriori.Mine, then rules.Generate) and
// returns its rules and the set itself, whose transactions are the baskets
// that exercise a mined rule set best: most groups that fire for one
// recommend nothing, because the transaction holds every item their
// consequents name.
func minedRules(p datagen.Params, minSupport, minConfidence float64) ([]rules.Rule, *itemset.Dataset) {
	data, err := datagen.Generate(p)
	if err != nil {
		panic(err)
	}
	res, err := apriori.Mine(data, apriori.Params{MinSupport: minSupport})
	if err != nil {
		panic(err)
	}
	rs, err := rules.Generate(res, rules.Params{MinConfidence: minConfidence})
	if err != nil {
		panic(err)
	}
	return rs, data
}

// minedItem moves a small mined item id clear of the other families' ids.
func minedItem(it itemset.Item) itemset.Item { return 2000 + it }

// smallMined is a mined rule set small enough for the oracle — a few
// hundred rules, many with multi-item consequents — and the set's first n
// transactions as baskets, both moved by minedItem.
func smallMined(n int) (rs []rules.Rule, baskets []itemset.Itemset) {
	p := datagen.Defaults()
	p.NumTransactions, p.NumItems, p.NumPatterns, p.AvgTxnLen, p.AvgPatternLen, p.Seed = 300, 50, 20, 5, 3, 3
	rs, data := minedRules(p, 0.06, 0.5) // 341 rules, 144 of them with multi-item consequents
	for _, tx := range data.Transactions[:n] {
		basket := make(itemset.Itemset, len(tx.Items))
		for i, it := range tx.Items {
			basket[i] = minedItem(it)
		}
		baskets = append(baskets, basket)
	}
	return remapItems(rs, minedItem), baskets
}

// reachRules is one antecedent, {3000}, whose reach is {3001, 3002, 3003}
// and whose item 3002 only a two-item consequent names, behind a better
// rule that recommends 3001 alone.  Rule generation never builds such a
// group — X ⇒ {x} is at least as confident as X ⇒ Y ∪ {x}, so each item of
// a mined multi-item consequent is a one-item consequent too — but a
// covered-group test that reads one reach item, or one rule's consequent,
// answers it wrongly.  reachCovered holds the whole reach; reachMissOne
// lacks 3002 alone, so the two-item rule fires and nothing else does.
func reachRules() (rs []rules.Rule, reachCovered, reachMissOne itemset.Itemset) {
	rule := func(conf float64, cons ...itemset.Item) rules.Rule {
		return rules.Rule{Antecedent: itemset.New(3000), Consequent: itemset.New(cons...), Count: 10, Support: 0.1, Confidence: conf, Lift: 1.5}
	}
	rs = []rules.Rule{rule(0.9, 3001), rule(0.8, 3001, 3002), rule(0.7, 3003)}
	return rs, itemset.New(3000, 3001, 3002, 3003), itemset.New(3000, 3001, 3003)
}

// oracleCase is one rule set and the baskets to ask it.
type oracleCase struct {
	name    string
	rules   []rules.Rule
	baskets []itemset.Itemset
}

func oracleCases() []oracleCase {
	baskets := func(seed int64, n int, f func(itemset.Item) itemset.Item) []itemset.Itemset {
		rng := rand.New(rand.NewSource(seed))
		out := make([]itemset.Itemset, n)
		for i := range out {
			raw := randomBasket(rng, 25, 6)
			for j := range raw {
				raw[j] = f(raw[j])
			}
			out[i] = itemset.New(raw...)
		}
		return out
	}
	same := func(it itemset.Item) itemset.Item { return it }
	var cases []oracleCase
	for seed := int64(1); seed <= 3; seed++ {
		cases = append(cases, oracleCase{fmt.Sprintf("synthetic-%d", seed), synthRules(300, 25, seed), baskets(seed*100, 25, same)})
	}

	// Item ids that are no use as array indices.
	cases = append(cases, oracleCase{"sparse-ids", remapItems(synthRules(300, 25, 4), sparseItem), baskets(400, 25, sparseItem)})

	// Every measure equal: the order is the itemset compare alone.
	tied := synthRules(300, 25, 5)
	for i := range tied {
		tied[i].Confidence, tied[i].Lift, tied[i].Support = 0.5, 1.25, 0.02
	}
	cases = append(cases, oracleCase{"all-tied", tied, baskets(500, 25, same)})

	// The same rule more than once.
	dup := synthRules(200, 25, 6)
	dup = append(dup, dup[:80]...)
	dup = append(dup, dup[40:60]...)
	cases = append(cases, oracleCase{"duplicates", dup, baskets(600, 25, same)})

	// One basket firing 1192 rules, its subsets, and baskets holding items
	// no rule mentions (or nothing else, or one item the rules do mention).
	heavy, heavyBasket := heavyRules()
	cases = append(cases, oracleCase{"heavy", heavy, []itemset.Itemset{
		heavyBasket,
		heavyBasket[:7],
		itemset.New(append(slices.Clone(heavyBasket), -5, 50, 9999, math.MaxInt32)...),
		itemset.New(append(slices.Clone(heavyBasket), 100, 101, 102)...), // one consequent left to recommend
		itemset.New(append(slices.Clone(heavyBasket), 100, 101, 102, 103)...),
		itemset.New(-5, 50, 9999),
		itemset.New(4),
		itemset.New(4, -5, 9999),
		{},
	}})

	// Mined rules, asked their own transactions and random baskets.
	mined, own := smallMined(25)
	cases = append(cases, oracleCase{"mined", mined, append(own, baskets(700, 25, minedItem)...)})

	// A group passed over only when the basket holds all of its reach.
	reach, covered, missOne := reachRules()
	cases = append(cases, oracleCase{"reach", reach, []itemset.Itemset{covered, missOne, itemset.New(3000), itemset.New(3000, 3002)}})
	return cases
}

// TestRecommendMatchesOracle drives rule sets and baskets chosen to reach
// every corner of the id scan — sparse and negative item ids, full rank
// ties, duplicate rules, a basket firing more rules than any heap holds,
// basket items the index has never seen — through the inline path
// (Workers 0 is Index.Recommend) and the pool's per-item fan-out, its
// one-item inline fallback and its merge (Workers 1 and 3, over baskets
// with none, one and many items the index knows), across K values, and
// checks each answer equal to the brute-force oracle's.
func TestRecommendMatchesOracle(t *testing.T) {
	for _, c := range oracleCases() {
		ix := NewIndex(c.rules, Options{})
		for _, workers := range []int{0, 1, 3} {
			s := NewServer(Options{Workers: workers, CacheSize: -1})
			s.Publish(ix)
			for _, basket := range c.baskets {
				for _, k := range []int{-1, 0, 1, 10, MaxK, 5000} {
					where := fmt.Sprintf("%s workers %d basket %v k %d", c.name, workers, basket, k)
					// The miss path under the raw k, which Recommend below
					// never hands it: k <= 0 must mean there what it means
					// to the index.
					if got, want := s.query(ix, basket, k), oracle(c.rules, basket, k); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: query\n got %v\nwant %v", where, got, want)
					}
					// The server reads k <= 0 as DefaultK and caps it at MaxK.
					served := k
					if served <= 0 {
						served = DefaultK
					}
					got, err := s.Recommend(basket, k)
					if err != nil {
						t.Fatal(err)
					}
					if want := oracle(c.rules, basket, min(served, MaxK)); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: server\n got %v\nwant %v", where, got, want)
					}
				}
			}
			s.Close()
		}
	}
}

// FuzzRecommendMatchesOracle holds the index to the oracle on fuzzed
// baskets and K over a fixed rule set that combines the awkward shapes:
// sparse ids, duplicates, a family of rules one basket fires a thousand
// of, mined rules with multi-item consequents, and a group one of whose
// reach items only a two-item consequent names.  Basket bytes pick items
// two at a time from the rules' own universe plus a few strangers, so most
// inputs fire something.
func FuzzRecommendMatchesOracle(f *testing.F) {
	heavy, heavyBasket := heavyRules()
	mined, own := smallMined(2)
	reach, covered, missOne := reachRules()
	rs := append(remapItems(synthRules(300, 25, 4), sparseItem), heavy...)
	rs = append(rs, rs[:50]...)
	rs = append(append(rs, mined...), reach...)
	universe := []itemset.Item{-5, 50, 9999, math.MaxInt32, math.MinInt32}
	seen := map[itemset.Item]bool{}
	for _, r := range rs {
		for _, it := range append(slices.Clone(r.Antecedent), r.Consequent...) {
			if !seen[it] {
				seen[it] = true
				universe = append(universe, it)
			}
		}
	}
	sort.Slice(universe, func(i, j int) bool { return universe[i] < universe[j] })
	ix := NewIndex(rs, Options{})
	pooled := NewServer(Options{Workers: 3})
	f.Cleanup(pooled.Close)

	pick := func(basket itemset.Itemset) []byte {
		var raw []byte
		for _, it := range basket {
			i := sort.Search(len(universe), func(i int) bool { return universe[i] >= it })
			raw = append(raw, byte(i>>8), byte(i))
		}
		return raw
	}
	f.Add(pick(heavyBasket), 10)
	f.Add(pick(heavyBasket), -1)
	f.Add(pick(heavyBasket[:3]), 0)
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 1}, 1)
	f.Add(pick(own[0]), 10)
	f.Add(pick(own[1]), -1)
	f.Add(pick(covered), 10)
	f.Add(pick(missOne), 10)
	f.Add([]byte{}, 5)
	f.Fuzz(func(t *testing.T, raw []byte, k int) {
		var items []itemset.Item
		for i := 0; i+1 < len(raw); i += 2 {
			items = append(items, universe[(int(raw[i])<<8|int(raw[i+1]))%len(universe)])
		}
		basket := itemset.New(items...)
		want := oracle(rs, basket, k)
		if got := ix.Recommend(basket, k); !reflect.DeepEqual(got, want) {
			t.Fatalf("basket %v k %d:\n got %v\nwant %v", basket, k, got, want)
		}
		if got := pooled.query(ix, basket, k); !reflect.DeepEqual(got, want) {
			t.Fatalf("basket %v k %d: pooled\n got %v\nwant %v", basket, k, got, want)
		}
	})
}

var sinkRules []rules.Rule

// TestRecommendAllocBudget: a query keeps rule ids, not rules, so what it
// allocates is its answer and nothing else — one object of k rules — whether
// the basket fires twelve rules or twelve hundred.  The byte bound is twice
// the answer plus 256 B of slack for the allocator's size classes.
func TestRecommendAllocBudget(t *testing.T) {
	const k = 10
	rs, heavyBasket := heavyRules()
	ix := NewIndex(rs, Options{})
	if n := len(oracle(rs, heavyBasket, -1)); n <= 1000 {
		t.Fatalf("the heavy basket fires %d rules, want > 1000", n)
	}
	for _, basket := range []itemset.Itemset{heavyBasket[:2], heavyBasket} {
		matches := len(oracle(rs, basket, -1))
		if got := len(ix.Recommend(basket, k)); got != k {
			t.Fatalf("%d matches: %d rules returned, want %d", matches, got, k)
		}
		objects := testing.AllocsPerRun(200, func() { sinkRules = ix.Recommend(basket, k) })
		if objects != 1 {
			t.Errorf("%d matches: %v objects per query, want 1 (the answer)", matches, objects)
		}
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			sinkRules = ix.Recommend(basket, k)
		}
		runtime.ReadMemStats(&after)
		perQuery := (after.TotalAlloc - before.TotalAlloc) / runs
		if budget := uint64(2*k*unsafe.Sizeof(rules.Rule{}) + 256); perQuery > budget {
			t.Errorf("%d matches: %d B per query, budget %d", matches, perQuery, budget)
		}
	}
}

// TestIndexStoresRulesOnce: All() is the index's one copy of the rules — the
// input sorted by RankLess, the same backing array on every call — and a
// build allocates what its arrays account for and no more: per rule, the
// stored copy, rules.Rank's key and six int32s (two chaining-table slots,
// the chain link, the group head, the id and the consequent offset) plus
// its consequent's items; per group, its record, antecedent and reach; per
// dictionary item, its offset and an allowance for the map.
func TestIndexStoresRulesOnce(t *testing.T) {
	rs := synthRules(100_000, 2_000, 42) // BenchmarkRecommend's rule set
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ix := NewIndex(rs, Options{})
	runtime.ReadMemStats(&after)
	built := after.TotalAlloc - before.TotalAlloc
	const (
		key      = 32  // rules.Rank's key: three float64s and an int32, padded
		dictItem = 128 // an offset, a map entry and the map's growth
	)
	perRule := unsafe.Sizeof(rules.Rule{}) + key + 6*4
	perGroup := unsafe.Sizeof(group{})
	budget := uint64(len(rs))*uint64(perRule) + 4*uint64(len(ix.cons)) +
		uint64(len(ix.groups))*uint64(perGroup) + 4*uint64(len(ix.ants)+len(ix.reach)) +
		uint64(len(ix.dict))*dictItem
	if old := 2 * uint64(len(rs)) * uint64(unsafe.Sizeof(rules.Rule{})); budget >= old {
		t.Fatalf("budget %d B is not below two copies of the input, %d B", budget, old)
	}
	if built > budget {
		t.Errorf("NewIndex allocated %d B over %d rules and %d groups, budget %d", built, len(rs), len(ix.groups)-1, budget)
	}

	want := append([]rules.Rule(nil), rs...)
	sort.Slice(want, func(i, j int) bool { return rules.RankLess(want[i], want[j]) })
	all := ix.All()
	if !reflect.DeepEqual(all, want) {
		t.Fatal("All() is not the input sorted by RankLess")
	}
	if again := ix.All(); &again[0] != &all[0] || len(again) != len(all) {
		t.Fatal("All() returned a different backing array on the second call")
	}
}

// TestRecommendMatchesOracleOnMinedRules repeats the oracle check on rules
// mined from a real (random) transaction database, so the index sees the
// measure distributions rule generation actually produces.
func TestRecommendMatchesOracleOnMinedRules(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var txns []itemset.Transaction
	for i := 0; i < 120; i++ {
		raw := make([]itemset.Item, 2+rng.Intn(5))
		for j := range raw {
			raw[j] = itemset.Item(rng.Intn(12))
		}
		txns = append(txns, itemset.Transaction{ID: int64(i), Items: itemset.New(raw...)})
	}
	res, err := apriori.Mine(itemset.NewDataset(txns), apriori.Params{MinSupport: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rules.Generate(res, rules.Params{MinConfidence: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Fatal("no rules mined; workload too sparse for the test")
	}
	ix := NewIndex(rs, Options{})
	for q := 0; q < 80; q++ {
		basket := randomBasket(rng, 12, 5)
		got := ix.Recommend(basket, 10)
		want := oracle(rs, basket, 10)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("basket %v:\n got %v\nwant %v", basket, got, want)
		}
	}
}

// TestIndexBuildDeterministic asserts the index (and its query results) do
// not depend on input rule order or map iteration during construction.
func TestIndexBuildDeterministic(t *testing.T) {
	rs := synthRules(400, 30, 11)
	shuffled := append([]rules.Rule(nil), rs...)
	rand.New(rand.NewSource(3)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	a := NewIndex(rs, Options{})
	b := NewIndex(shuffled, Options{})
	layout := func(ix *Index) []any {
		return []any{ix.dict, ix.off, ix.groups, ix.ants, ix.ids, ix.consOff, ix.cons, ix.reach}
	}
	if !reflect.DeepEqual(layout(a), layout(b)) {
		t.Fatal("posting layout depends on input order")
	}
	rng := rand.New(rand.NewSource(5))
	for q := 0; q < 40; q++ {
		basket := randomBasket(rng, 30, 6)
		ra := fmt.Sprintf("%v", a.Recommend(basket, 10))
		rb := fmt.Sprintf("%v", b.Recommend(basket, 10))
		if ra != rb {
			t.Fatalf("basket %v: order-dependent results\n a: %s\n b: %s", basket, ra, rb)
		}
	}
	if !reflect.DeepEqual(a.All(), b.All()) {
		t.Fatal("All() depends on input order")
	}
}

// TestIndexAccounting checks NumRules and All agree, that every rule is
// laid out exactly once, in a group some posting run reaches, and that each
// group's reach — on synthetic and on mined rules — is the set of its
// rules' consequent items, each stored once.
func TestIndexAccounting(t *testing.T) {
	rs := synthRules(250, 40, 9)
	ix := NewIndex(rs, Options{})
	if ix.NumRules() != len(rs) {
		t.Fatalf("NumRules = %d, want %d", ix.NumRules(), len(rs))
	}
	if runs, groups := ix.off[len(ix.off)-1], int32(len(ix.groups)-1); ix.off[0] != 0 || runs != groups {
		t.Fatalf("posting runs cover groups %d..%d, want 0..%d", ix.off[0], runs, groups)
	}
	seen := make([]bool, len(rs))
	for _, id := range ix.ids {
		if seen[id] {
			t.Fatalf("rule %d laid out twice", id)
		}
		seen[id] = true
	}
	if len(ix.ids) != len(rs) {
		t.Fatalf("%d rules laid out, want %d", len(ix.ids), len(rs))
	}
	mined, _ := smallMined(0)
	for _, ix := range []*Index{ix, NewIndex(mined, Options{})} {
		for g := range len(ix.groups) - 1 {
			want := map[int32]bool{}
			for _, c := range ix.cons[ix.consOff[ix.groups[g].lo]:ix.consOff[ix.groups[g+1].lo]] {
				want[c] = true
			}
			got := ix.reach[ix.groups[g].reach:ix.groups[g+1].reach]
			held := map[int32]bool{}
			for _, c := range got {
				held[c] = true
			}
			if len(got) != len(want) || !reflect.DeepEqual(held, want) {
				t.Fatalf("group %d: reach %v, want each of %v once", g, got, want)
			}
		}
		if n := ix.groups[len(ix.groups)-1].reach; int(n) != len(ix.reach) {
			t.Fatalf("the sentinel closes reach at %d, want %d", n, len(ix.reach))
		}
	}
	if got := len(ix.All()); got != len(rs) {
		t.Fatalf("All() has %d rules, want %d", got, len(rs))
	}
	for i := 1; i < len(ix.All()); i++ {
		if rules.RankLess(ix.All()[i], ix.All()[i-1]) {
			t.Fatalf("All() unsorted at %d", i)
		}
	}
}

// TestEmptyIndex: an index over zero rules must answer (with nothing)
// rather than fail.
func TestEmptyIndex(t *testing.T) {
	ix := NewIndex(nil, Options{})
	if got := ix.Recommend(itemset.New(1, 2), 5); len(got) != 0 {
		t.Fatalf("empty index recommended %v", got)
	}
	if ix.NumRules() != 0 {
		t.Fatalf("NumRules = %d", ix.NumRules())
	}
}
