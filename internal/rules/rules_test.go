package rules

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"parapriori/internal/apriori"
	"parapriori/internal/itemset"
)

// paperData is Table I: Bread=1, Beer=2, Coke=3, Diaper=4, Milk=5.
func paperData() *itemset.Dataset {
	rows := [][]itemset.Item{
		{1, 3, 5}, {2, 1}, {2, 3, 4, 5}, {2, 1, 4, 5}, {3, 4, 5},
	}
	txns := make([]itemset.Transaction, len(rows))
	for i, r := range rows {
		txns[i] = itemset.Transaction{ID: int64(i), Items: itemset.New(r...)}
	}
	return itemset.NewDataset(txns)
}

func mine(t *testing.T, minsup float64) *apriori.Result {
	t.Helper()
	res, err := apriori.Mine(paperData(), apriori.Params{MinSupport: minsup})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func find(rules []Rule, x, y itemset.Itemset) (Rule, bool) {
	for _, r := range rules {
		if r.Antecedent.Equal(x) && r.Consequent.Equal(y) {
			return r, true
		}
	}
	return Rule{}, false
}

func TestPaperRule(t *testing.T) {
	// {Diaper, Milk} => {Beer}: support 40%, confidence 66% (Section II).
	res := mine(t, 0.2)
	rules, err := Generate(res, Params{MinConfidence: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	r, ok := find(rules, itemset.New(4, 5), itemset.New(2))
	if !ok {
		t.Fatalf("rule {Diaper,Milk} => {Beer} not found among %d rules", len(rules))
	}
	if math.Abs(r.Support-0.4) > 1e-9 {
		t.Errorf("support = %v, want 0.4", r.Support)
	}
	if math.Abs(r.Confidence-2.0/3.0) > 1e-9 {
		t.Errorf("confidence = %v, want 2/3", r.Confidence)
	}
	if r.Count != 2 {
		t.Errorf("count = %d, want 2", r.Count)
	}
	// σ(Beer) = 3/5, so lift = (2/3)/(3/5) = 10/9 and
	// leverage = 0.4 − 0.6·0.6 = 0.04.
	if math.Abs(r.Lift-10.0/9.0) > 1e-9 {
		t.Errorf("lift = %v, want 10/9", r.Lift)
	}
	if math.Abs(r.Leverage-0.04) > 1e-9 {
		t.Errorf("leverage = %v, want 0.04", r.Leverage)
	}
}

func TestConfidenceThresholdFilters(t *testing.T) {
	res := mine(t, 0.2)
	loose, err := Generate(res, Params{MinConfidence: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := Generate(res, Params{MinConfidence: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(tight) >= len(loose) {
		t.Errorf("tightening confidence did not shrink rules: %d vs %d", len(tight), len(loose))
	}
	for _, r := range tight {
		if r.Confidence < 0.9 {
			t.Errorf("rule %v below threshold", r)
		}
	}
}

func TestRulesSortedByStrength(t *testing.T) {
	res := mine(t, 0.2)
	rules, err := Generate(res, Params{MinConfidence: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rules); i++ {
		a, b := rules[i-1], rules[i]
		if a.Confidence < b.Confidence {
			t.Fatalf("rules unsorted at %d: %v then %v", i, a, b)
		}
	}
}

func TestRuleMeasuresConsistent(t *testing.T) {
	// For every rule: X and Y disjoint, X∪Y frequent, support and
	// confidence recomputable from the support index.
	rng := rand.New(rand.NewSource(23))
	var txns []itemset.Transaction
	for i := 0; i < 150; i++ {
		items := make([]itemset.Item, 2+rng.Intn(6))
		for j := range items {
			items[j] = itemset.Item(rng.Intn(15))
		}
		txns = append(txns, itemset.Transaction{ID: int64(i), Items: itemset.New(items...)})
	}
	d := itemset.NewDataset(txns)
	res, err := apriori.Mine(d, apriori.Params{MinSupport: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	rules, err := Generate(res, Params{MinConfidence: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) == 0 {
		t.Fatal("no rules generated; workload too sparse for the test")
	}
	supports := res.SupportTable()
	n := float64(d.Len())
	for _, r := range rules {
		for _, it := range r.Consequent {
			if r.Antecedent.Contains(it) {
				t.Fatalf("rule %v has overlapping sides", r)
			}
		}
		union := itemset.New(append(r.Antecedent.Clone(), r.Consequent...)...)
		cu, ok := supports.Lookup(union)
		if !ok {
			t.Fatalf("rule %v union not frequent", r)
		}
		if cu != r.Count {
			t.Errorf("rule %v count %d, index says %d", r, r.Count, cu)
		}
		cx, _ := supports.Lookup(r.Antecedent)
		if math.Abs(r.Confidence-float64(cu)/float64(cx)) > 1e-12 {
			t.Errorf("rule %v confidence mismatch", r)
		}
		if math.Abs(r.Support-float64(cu)/n) > 1e-12 {
			t.Errorf("rule %v support mismatch", r)
		}
		cy, _ := supports.Lookup(r.Consequent)
		if math.Abs(r.Lift-r.Confidence/(float64(cy)/n)) > 1e-12 {
			t.Errorf("rule %v lift mismatch", r)
		}
		if math.Abs(r.Leverage-(r.Support-(float64(cx)/n)*(float64(cy)/n))) > 1e-12 {
			t.Errorf("rule %v leverage mismatch", r)
		}
	}
}

// TestRankLessTotalOrder asserts the serving comparator is a strict total
// order over generated rules: antisymmetric, and never equal for distinct
// rules — the property that makes top-K serving results deterministic.
func TestRankLessTotalOrder(t *testing.T) {
	res := mine(t, 0.2)
	rules, err := Generate(res, Params{MinConfidence: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range rules {
		for j := range rules {
			if i == j {
				if RankLess(rules[i], rules[j]) {
					t.Fatalf("RankLess(r, r) true for %v", rules[i])
				}
				continue
			}
			if RankLess(rules[i], rules[j]) == RankLess(rules[j], rules[i]) {
				t.Fatalf("RankLess not a strict total order on %v / %v", rules[i], rules[j])
			}
		}
	}
}

// bruteRules enumerates all rules by splitting every frequent itemset.
func bruteRules(res *apriori.Result, minConf float64) int {
	supports := res.SupportTable()
	count := 0
	for _, f := range res.All() {
		if len(f.Items) < 2 {
			continue
		}
		n := len(f.Items)
		for mask := 1; mask < (1<<n)-1; mask++ {
			var x, y itemset.Itemset
			for b := 0; b < n; b++ {
				if mask&(1<<b) != 0 {
					x = append(x, f.Items[b])
				} else {
					y = append(y, f.Items[b])
				}
			}
			cx, _ := supports.Lookup(x)
			if cx == 0 {
				continue
			}
			if float64(f.Count)/float64(cx) >= minConf {
				count++
			}
		}
	}
	return count
}

func TestMatchesBruteForceEnumeration(t *testing.T) {
	res := mine(t, 0.2)
	for _, conf := range []float64{0.1, 0.5, 0.8, 1.0} {
		rules, err := Generate(res, Params{MinConfidence: conf})
		if err != nil {
			t.Fatal(err)
		}
		want := bruteRules(res, conf)
		if len(rules) != want {
			t.Errorf("minconf %v: %d rules, brute force %d", conf, len(rules), want)
		}
	}
}

func TestInvalidConfidence(t *testing.T) {
	res := mine(t, 0.2)
	for _, conf := range []float64{-0.1, 1.1} {
		if _, err := Generate(res, Params{MinConfidence: conf}); err == nil {
			t.Errorf("MinConfidence %v accepted", conf)
		}
	}
}

func TestEmptyResult(t *testing.T) {
	rules, err := Generate(&apriori.Result{}, Params{MinConfidence: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 0 {
		t.Errorf("rules from empty result: %v", rules)
	}
}

func TestRuleString(t *testing.T) {
	r := Rule{
		Antecedent: itemset.New(4, 5), Consequent: itemset.New(2),
		Support: 0.4, Confidence: 2.0 / 3.0, Lift: 10.0 / 9.0, Leverage: 0.04,
	}
	want := "{4 5} => {2} (sup 0.4000, conf 0.6667, lift 1.1111)"
	if got := r.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestReloadedResultGeneratesSameRules(t *testing.T) {
	// Persisting a result and reloading it must not change the rules it
	// generates — the reason apriori.WriteResult exists.
	res := mine(t, 0.2)
	var buf bytes.Buffer
	if err := apriori.WriteResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	back, err := apriori.ReadResult(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Generate(res, Params{MinConfidence: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Generate(back, Params{MinConfidence: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("reloaded result gave %d rules, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i].String() != got[i].String() {
			t.Errorf("rule %d: %v vs %v", i, got[i], want[i])
		}
	}
}
