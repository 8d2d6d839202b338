// Package rules generates association rules from frequent itemsets — the
// second step of the discovery task in Section II of the paper.  The paper
// focuses its parallel work on frequent-itemset discovery and calls rule
// generation "straightforward"; this package implements the standard
// ap-genrules procedure of Agrawal & Srikant so the library covers the whole
// pipeline.
package rules

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"parapriori/internal/apriori"
	"parapriori/internal/itemset"
)

// Rule is an association rule X => Y with its quality measures.
//
// Support is σ(X ∪ Y)/|T| and Confidence is σ(X ∪ Y)/σ(X), exactly the
// definitions of Section II.  Lift is Confidence / P(Y) — how much more
// likely Y becomes given X than at its base rate (1 means independence) —
// and Leverage is P(X ∪ Y) − P(X)·P(Y), the absolute co-occurrence excess.
// Both are derivable from the support index, so persisted results
// (apriori.WriteResult) carry everything needed to recompute them.  The
// JSON names are the serving tiers' wire form of a rule: Go's encoder
// writes the shortest float64 text that parses back to the same bits, so a
// rule survives the wire exactly.
type Rule struct {
	Antecedent itemset.Itemset `json:"antecedent"` // X
	Consequent itemset.Itemset `json:"consequent"` // Y
	Count      int64           `json:"count"`      // σ(X ∪ Y)
	Support    float64         `json:"support"`
	Confidence float64         `json:"confidence"`
	Lift       float64         `json:"lift"`
	Leverage   float64         `json:"leverage"`
}

// String renders the rule as "{1 2} => {3} (sup 0.40, conf 0.66, lift 1.11)".
func (r Rule) String() string {
	return fmt.Sprintf("%v => %v (sup %.4f, conf %.4f, lift %.4f)", r.Antecedent, r.Consequent, r.Support, r.Confidence, r.Lift)
}

// Params configures rule generation.
type Params struct {
	// MinConfidence is the minimum confidence threshold α in [0, 1].
	MinConfidence float64
}

// Validate returns nil or a *apriori.FieldError naming the refused field.
// It is the one check of a confidence threshold: Generate, core's parallel
// step and the root's RuleGenOptions all call it, and a NaN is refused.
func (p Params) Validate() error {
	if !(p.MinConfidence >= 0 && p.MinConfidence <= 1) {
		return apriori.Refuse("MinConfidence", "%v outside [0, 1]", p.MinConfidence)
	}
	return nil
}

// Generate derives every association rule meeting the confidence threshold
// from the frequent itemsets of a mining result.  For each frequent itemset
// f it starts from 1-item consequents and grows consequents level-wise with
// the same apriori_gen join used for candidates, exploiting the fact that
// moving items from antecedent to consequent can only lower confidence.
//
// Rules are returned sorted by descending confidence, then descending
// support, then antecedent order, so the strongest rules come first.
func Generate(res *apriori.Result, p Params) ([]Rule, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("rules: %w", err)
	}
	if res.N == 0 {
		return nil, nil
	}
	g := NewGenerator(res.SupportTable(), float64(res.N), p.MinConfidence)
	for size, level := range res.Levels {
		if size+1 < 2 {
			continue // no rules from single items
		}
		for _, f := range level {
			g.FromItemset(f)
		}
	}
	return g.sorted(), nil
}

// sortKey is a rule's place in the Sort order: its two measures, and its
// index for the item tie-breaks and the permutation.  A measure is held as
// its bits complemented: measures are never negative or NaN, so their bits
// order as they do, and complemented bits order descending.
type sortKey struct {
	conf, sup uint64
	at        int32
}

// order returns the keys of the n rules rule(0) … rule(n-1) in Sort order.
func order(n int, rule func(int32) *Rule) []sortKey {
	keys := make([]sortKey, n)
	for i := range keys {
		r := rule(int32(i))
		keys[i] = sortKey{^math.Float64bits(r.Confidence), ^math.Float64bits(r.Support), int32(i)}
	}
	slices.SortFunc(keys, func(a, b sortKey) int {
		if a.conf != b.conf {
			return cmp.Compare(a.conf, b.conf)
		}
		if a.sup != b.sup {
			return cmp.Compare(a.sup, b.sup)
		}
		ra, rb := rule(a.at), rule(b.at)
		if c := ra.Antecedent.Compare(rb.Antecedent); c != 0 {
			return c
		}
		return ra.Consequent.Compare(rb.Consequent)
	})
	return keys
}

// Sort orders rules by descending confidence, then descending support, then
// antecedent/consequent order — the order Generate returns.  It sorts small
// keys, not the rules, then moves each rule once into its place.
func Sort(rs []Rule) {
	keys := order(len(rs), func(i int32) *Rule { return &rs[i] })
	permute(rs, func(i int) *int32 { return &keys[i].at })
}

// permute moves rule *at(i) to i for every i: it follows each cycle of the
// permutation once, marking a placed slot by pointing its entry at itself.
func permute(rs []Rule, at func(i int) *int32) {
	for i := range rs {
		if int(*at(i)) == i {
			continue
		}
		held, j := rs[i], i
		for {
			slot := at(j)
			from := int(*slot)
			*slot = int32(j)
			if from == i {
				rs[j] = held
				break
			}
			rs[j] = rs[from]
			j = from
		}
	}
}

// servingKey is a rule's place in the serving order: the three measures the
// order compares first, and the rule's index, to compare the itemsets on
// the rare full tie and to find the rule once its rank is known.
type servingKey struct {
	conf, lift, sup float64
	at              int32
}

func servingKeyOf(r *Rule, at int32) servingKey {
	return servingKey{r.Confidence, r.Lift, r.Support, at}
}

// compareRank is the serving order, and its one definition: descending
// confidence, then descending lift (a high-lift rule is genuinely
// informative where an equal-confidence high-base-rate consequent is not),
// then descending support, then antecedent/consequent order.  a and b are
// the keys of the rules ra and rb.  The order is total — no two distinct
// rules compare equal, and cmp.Compare places a NaN measure below every
// number — so any sort under it yields one deterministic ranking, the
// property the serving layer's top-K results rely on.
func compareRank(a, b servingKey, ra, rb *Rule) int {
	// The measures descend, hence b before a.
	if c := cmp.Compare(b.conf, a.conf); c != 0 {
		return c
	}
	if c := cmp.Compare(b.lift, a.lift); c != 0 {
		return c
	}
	if c := cmp.Compare(b.sup, a.sup); c != 0 {
		return c
	}
	if c := ra.Antecedent.Compare(rb.Antecedent); c != 0 {
		return c
	}
	return ra.Consequent.Compare(rb.Consequent)
}

// RankLess reports whether a ranks before b in the serving order
// (compareRank).
func RankLess(a, b Rule) bool {
	return compareRank(servingKeyOf(&a, 0), servingKeyOf(&b, 0), &a, &b) < 0
}

// Rank sorts rules into the serving order (RankLess).  It sorts compact
// keys — the three measures and an index; the itemsets are compared only
// when all three tie — then moves each rule once into its place.
func Rank(rs []Rule) {
	keys := make([]servingKey, len(rs))
	for i := range rs {
		keys[i] = servingKeyOf(&rs[i], int32(i))
	}
	slices.SortFunc(keys, func(a, b servingKey) int { return compareRank(a, b, &rs[a.at], &rs[b.at]) })
	permute(rs, func(i int) *int32 { return &keys[i].at })
}

// Generator runs ap-genrules itemset by itemset over one result's supports,
// collecting the rules it keeps and counting the candidate rules it tests in
// Evaluated — the work measure the parallel formulation charges for.
type Generator struct {
	Evaluated int64

	// kept holds the kept rules in blocks of chunkRules, so the list grows
	// without copying what it holds.
	kept  [][]Rule
	nKept int

	support *apriori.SupportTable
	n       float64
	minConf float64
	arena   []itemset.Item    // kept rules' items are carved from it
	cons    []itemset.Itemset // the consequents kept at the current size
}

// NewGenerator readies rule generation over the supports of a result of n
// transactions at the confidence threshold minConf.  Generators may share
// one table: they only read it.
func NewGenerator(support *apriori.SupportTable, n float64, minConf float64) *Generator {
	return &Generator{support: support, n: n, minConf: minConf}
}

// FromItemset appends the rules derivable from one frequent itemset f of
// the generator's result: ap-genrules over growing consequents.
//
//checkinv:hotpath
func (g *Generator) FromItemset(f apriori.Frequent) {
	// Level 1: single-item consequents, each a view of f's items.
	g.cons = g.cons[:0]
	for i := range f.Items {
		y := f.Items[i : i+1 : i+1]
		if g.test(f, y) {
			g.cons = append(g.cons, y)
		}
	}
	// Grow consequents while they leave a non-empty antecedent.
	for m := 2; m < len(f.Items) && len(g.cons) > 1; m++ {
		next := apriori.GenFlat(g.cons)
		g.cons = g.cons[:0]
		for i := 0; i < next.Len(); i++ {
			if y := next.At(i); g.test(f, y) {
				g.cons = append(g.cons, y)
			}
		}
	}
}

// antecedentBuf is the stack buffer a candidate rule's antecedent is built
// in; a longer itemset builds it on the heap.
const antecedentBuf = 32

// test evaluates the candidate rule f \ y => y and keeps it when it meets
// the threshold, reporting whether it did.  The antecedent is built in a
// stack buffer and copied out only for a kept rule.
//
//checkinv:hotpath
func (g *Generator) test(f apriori.Frequent, y itemset.Itemset) bool {
	g.Evaluated++
	var buf [antecedentBuf]itemset.Item
	x := f.Items.AppendMinus(buf[:0], y)
	if len(x) == 0 {
		return false
	}
	sx, ok := g.support.Lookup(x)
	if !ok || sx == 0 {
		// Every subset of a frequent itemset is frequent, so a missing
		// antecedent means the caller passed an inconsistent result; treat
		// the rule as failing rather than panicking.
		return false
	}
	conf := float64(f.Count) / float64(sx)
	if conf < g.minConf {
		return false
	}
	r := Rule{
		Count:      f.Count,
		Support:    float64(f.Count) / g.n,
		Confidence: conf,
	}
	// Y is a subset of a frequent itemset, so its support is in the table
	// whenever the caller passed a consistent result.
	if sy, ok := g.support.Lookup(y); ok && sy > 0 {
		py := float64(sy) / g.n
		r.Lift = conf / py
		r.Leverage = r.Support - (float64(sx)/g.n)*py
	}
	r.Antecedent, r.Consequent = g.carve(x, y)
	if g.nKept%chunkRules == 0 {
		g.kept = append(g.kept, make([]Rule, 0, chunkRules))
	}
	last := &g.kept[len(g.kept)-1]
	*last = append(*last, r)
	g.nKept++
	return true
}

// chunkRules is the size of one block of kept rules.
const chunkRules = 256

// rule returns kept rule i.
func (g *Generator) rule(i int32) *Rule { return &g.kept[i/chunkRules][i%chunkRules] }

// Rules returns the kept rules in the order they were kept, nil for none.
func (g *Generator) Rules() []Rule {
	if g.nKept == 0 {
		return nil
	}
	out := make([]Rule, 0, g.nKept)
	for _, c := range g.kept {
		out = append(out, c...)
	}
	return out
}

// sorted returns the kept rules in Sort order, nil for none.
//
//checkinv:hotpath
func (g *Generator) sorted() []Rule {
	if g.nKept == 0 {
		return nil
	}
	keys := order(g.nKept, g.rule)
	out := make([]Rule, g.nKept)
	for i, k := range keys {
		out[i] = *g.rule(k.at)
	}
	return out
}

// arenaItems is the size of one block of the arena kept rules' items live
// in.
const arenaItems = 4096

// carve copies x and y into the arena and returns the copies, each
// capacity-clipped so an append to one never reaches the other.
func (g *Generator) carve(x, y itemset.Itemset) (itemset.Itemset, itemset.Itemset) {
	n := len(x) + len(y)
	if cap(g.arena)-len(g.arena) < n {
		g.arena = make([]itemset.Item, 0, max(arenaItems, n))
	}
	at := len(g.arena)
	g.arena = append(append(g.arena, x...), y...)
	return g.arena[at : at+len(x) : at+len(x)], g.arena[at+len(x) : at+n : at+n]
}
