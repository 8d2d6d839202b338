package rules_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"parapriori/internal/apriori"
	"parapriori/internal/cluster"
	"parapriori/internal/core"
	"parapriori/internal/datagen"
	"parapriori/internal/itemset"
	"parapriori/internal/rules"
)

// referenceGenerate is rule generation as it was written before the support
// table: supports in a map under each itemset's string key, the antecedent
// built for every candidate rule, consequents grown through the header form
// of apriori_gen, and a comparator sort of the rules themselves.  It returns
// the rules and the candidate rules evaluated.
func referenceGenerate(res *apriori.Result, minConf float64) ([]rules.Rule, int64) {
	key := func(s itemset.Itemset) string { return string(s.AppendKey(nil)) }
	support := map[string]int64{}
	for _, level := range res.Levels {
		for _, f := range level {
			support[key(f.Items)] = f.Count
		}
	}
	n := float64(res.N)
	var out []rules.Rule
	var evaluated int64
	try := func(f apriori.Frequent, y itemset.Itemset) bool {
		evaluated++
		var x itemset.Itemset
		for _, it := range f.Items {
			if !y.Contains(it) {
				x = append(x, it)
			}
		}
		if len(x) == 0 {
			return false
		}
		sx, ok := support[key(x)]
		if !ok || sx == 0 {
			return false
		}
		conf := float64(f.Count) / float64(sx)
		if conf < minConf {
			return false
		}
		r := rules.Rule{Antecedent: x, Consequent: y, Count: f.Count, Support: float64(f.Count) / n, Confidence: conf}
		if sy, ok := support[key(y)]; ok && sy > 0 {
			py := float64(sy) / n
			r.Lift = conf / py
			r.Leverage = r.Support - (float64(sx)/n)*py
		}
		out = append(out, r)
		return true
	}
	for size, level := range res.Levels {
		if size+1 < 2 {
			continue
		}
		for _, f := range level {
			var cons []itemset.Itemset
			for _, it := range f.Items {
				if y := (itemset.Itemset{it}); try(f, y) {
					cons = append(cons, y)
				}
			}
			for m := 2; m < len(f.Items) && len(cons) > 1; m++ {
				next := apriori.Gen(cons)
				cons = nil
				for _, y := range next {
					if try(f, y) {
						cons = append(cons, y)
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Confidence != out[j].Confidence {
			return out[i].Confidence > out[j].Confidence
		}
		if out[i].Support != out[j].Support {
			return out[i].Support > out[j].Support
		}
		if c := out[i].Antecedent.Compare(out[j].Antecedent); c != 0 {
			return c < 0
		}
		return out[i].Consequent.Compare(out[j].Consequent) < 0
	})
	return out, evaluated
}

// sameRules reports the first difference between two rule lists — in
// length, order, items, count or any measure's bits — or "".
func sameRules(got, want []rules.Rule) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rules, reference %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		bitsEqual := math.Float64bits(g.Support) == math.Float64bits(w.Support) &&
			math.Float64bits(g.Confidence) == math.Float64bits(w.Confidence) &&
			math.Float64bits(g.Lift) == math.Float64bits(w.Lift) &&
			math.Float64bits(g.Leverage) == math.Float64bits(w.Leverage)
		if !g.Antecedent.Equal(w.Antecedent) || !g.Consequent.Equal(w.Consequent) || g.Count != w.Count || !bitsEqual {
			return fmt.Sprintf("rule %d: %+v, reference %+v", i, g, w)
		}
	}
	return ""
}

// referenceResults are the results the differential test generates rules
// from: random datasets mined at several supports, a Quest workload, the
// same result saved and reloaded, and results thinned at random so some
// antecedents and consequents are missing from the table.
func referenceResults(t *testing.T) map[string]*apriori.Result {
	t.Helper()
	out := map[string]*apriori.Result{}
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 6; trial++ {
		var txns []itemset.Transaction
		for i := 0; i < 120+40*trial; i++ {
			items := make([]itemset.Item, 1+rng.Intn(9))
			for j := range items {
				items[j] = itemset.Item(rng.Intn(14))
			}
			txns = append(txns, itemset.Transaction{ID: int64(i), Items: itemset.New(items...)})
		}
		minsup := []float64{0.03, 0.06, 0.12}[trial%3]
		res, err := apriori.Mine(itemset.NewDataset(txns), apriori.Params{MinSupport: minsup})
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("random-%d", trial)] = res
	}
	quest := mineQuest(t, 4000)
	out["quest"] = quest
	var buf bytes.Buffer
	if err := apriori.WriteResult(&buf, quest); err != nil {
		t.Fatal(err)
	}
	back, err := apriori.ReadResult(&buf)
	if err != nil {
		t.Fatal(err)
	}
	out["quest-reloaded"] = back
	for _, name := range []string{"random-0", "quest"} {
		src := out[name]
		thin := &apriori.Result{N: src.N, MinCount: src.MinCount, Levels: make([][]apriori.Frequent, len(src.Levels))}
		for l, level := range src.Levels {
			for _, f := range level {
				if l == len(src.Levels)-1 || rng.Intn(4) != 0 {
					thin.Levels[l] = append(thin.Levels[l], f)
				}
			}
		}
		out[name+"-thinned"] = thin
	}
	return out
}

// mineQuest mines n transactions of the mine-ooc workload's shape (T12.I4,
// 300 items, 200 patterns) at its 2 % support.
func mineQuest(t testing.TB, n int) *apriori.Result {
	p := datagen.Defaults()
	p.NumTransactions = n
	p.NumItems = 300
	p.NumPatterns = 200
	p.AvgTxnLen = 12
	p.AvgPatternLen = 4
	p.Seed = 7
	data, err := datagen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := apriori.Mine(data, apriori.Params{MinSupport: 0.02, Engine: "bitset"})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestGenerateMatchesReference holds Generate and core.GenerateRules to the
// map-and-string-key reference: the same rules in the same order with every
// measure's bits equal, and for the parallel step at P = 1, 3 and 8 the same
// candidate rules evaluated.
func TestGenerateMatchesReference(t *testing.T) {
	for name, res := range referenceResults(t) {
		for _, minConf := range []float64{0, 0.3, 0.5, 0.8, 1} {
			want, evaluated := referenceGenerate(res, minConf)
			got, err := rules.Generate(res, rules.Params{MinConfidence: minConf})
			if err != nil {
				t.Fatal(err)
			}
			if diff := sameRules(got, want); diff != "" {
				t.Fatalf("%s minconf %v: Generate: %s", name, minConf, diff)
			}
			for _, p := range []int{1, 3, 8} {
				rep, err := core.GenerateRules(res, p, cluster.Machine{}, minConf)
				if err != nil {
					t.Fatal(err)
				}
				if diff := sameRules(rep.Rules, want); diff != "" {
					t.Fatalf("%s minconf %v: GenerateRules P=%d: %s", name, minConf, p, diff)
				}
				if rep.Evaluated != evaluated {
					t.Errorf("%s minconf %v: GenerateRules P=%d evaluated %d, reference %d", name, minConf, p, rep.Evaluated, evaluated)
				}
			}
		}
	}
}

var (
	questOnce sync.Once
	questRes  *apriori.Result
)

// questResult is the benchmark's mined result, mined once per process.
func questResult(tb testing.TB) *apriori.Result {
	questOnce.Do(func() { questRes = mineQuest(tb, 50000) })
	return questRes
}

// BenchmarkGenerate is the rule step of the mine-ooc workload: every rule at
// confidence 0.5 from the frequent itemsets of 50 000 of its transactions.
func BenchmarkGenerate(b *testing.B) {
	res := questResult(b)
	b.ReportAllocs()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		rs, err := rules.Generate(res, rules.Params{MinConfidence: 0.5})
		if err != nil {
			b.Fatal(err)
		}
		n = len(rs)
	}
	b.ReportMetric(float64(n), "rules")
}

// maxAllocsPerRule bounds Generate's allocations per rule it returns on
// the mine-ooc shape.
const maxAllocsPerRule = 0.25

// TestGenerateAllocsPerRule guards the allocations of rule generation: a
// rejected candidate rule allocates nothing and a kept one shares its
// items' arena, so the count stays a fraction of one per rule.  A
// per-candidate antecedent or a per-rule header brought back fails it.
func TestGenerateAllocsPerRule(t *testing.T) {
	res := questResult(t)
	var n int
	allocs := testing.AllocsPerRun(3, func() {
		rs, err := rules.Generate(res, rules.Params{MinConfidence: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		n = len(rs)
	})
	if n == 0 {
		t.Fatal("no rules")
	}
	if per := allocs / float64(n); per > maxAllocsPerRule {
		t.Errorf("%.0f allocations for %d rules: %.3f a rule, bound %v", allocs, n, per, maxAllocsPerRule)
	}
	t.Logf("%.0f allocations for %d rules (%.3f a rule)", allocs, n, allocs/float64(n))
}
