package rules

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"parapriori/internal/itemset"
)

// refCompareRank is the serving order as it was written before the keyed
// kernel, kept as the reference Rank and RankLess are held to: the measures
// compared with cmp.Compare, descending, then the itemsets.
func refCompareRank(ra, rb *Rule) int {
	if c := cmp.Compare(rb.Confidence, ra.Confidence); c != 0 {
		return c
	}
	if c := cmp.Compare(rb.Lift, ra.Lift); c != 0 {
		return c
	}
	if c := cmp.Compare(rb.Support, ra.Support); c != 0 {
		return c
	}
	if c := ra.Antecedent.Compare(rb.Antecedent); c != 0 {
		return c
	}
	return ra.Consequent.Compare(rb.Consequent)
}

// refOrder is Sort's order as it was written before the keyed kernel, kept
// as a reference: each measure's bits complemented.  It is Generate's
// order only where its measures can fall — not negative, not NaN and not
// −0 — and refStrength is the reference everywhere else.
func refOrder(ra, rb *Rule) int {
	if c := cmp.Compare(^math.Float64bits(ra.Confidence), ^math.Float64bits(rb.Confidence)); c != 0 {
		return c
	}
	if c := cmp.Compare(^math.Float64bits(ra.Support), ^math.Float64bits(rb.Support)); c != 0 {
		return c
	}
	if c := ra.Antecedent.Compare(rb.Antecedent); c != 0 {
		return c
	}
	return ra.Consequent.Compare(rb.Consequent)
}

// refStrength is Sort's order on any measures: the serving order with the
// lift left out.
func refStrength(ra, rb *Rule) int {
	a, b := *ra, *rb
	a.Lift, b.Lift = 0, 0
	return refCompareRank(&a, &b)
}

// refGroup is the grouping order: antecedent, then the serving order.
func refGroup(ra, rb *Rule) int {
	if c := ra.Antecedent.Compare(rb.Antecedent); c != 0 {
		return c
	}
	return refCompareRank(ra, rb)
}

// edgeMeasures are the floats the orders must place as cmp.Compare does:
// NaNs of both signs, both zeros, both infinities, subnormals, negatives
// and repeats.
var edgeMeasures = []float64{
	math.NaN(), math.Copysign(math.NaN(), -1), math.Float64frombits(0x7ff0000000000001),
	0, math.Copysign(0, -1),
	math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022 - 0x1p-1074,
	math.Nextafter(math.Inf(1), 0), math.Nextafter(math.Inf(-1), 0),
	-1, -0.5, 0.25, 0.5, 0.5, 1, 1, 2,
}

// nonNegativeMeasures are the edge measures in refOrder's domain.
func nonNegativeMeasures() []float64 {
	var out []float64
	for _, f := range edgeMeasures {
		if f >= 0 && !math.Signbit(f) {
			out = append(out, f)
		}
	}
	return out
}

// edgeRules draws n rules with measures from pool and itemsets over four
// items, so measures and itemsets both tie often.
func edgeRules(rng *rand.Rand, n int, pool []float64) []Rule {
	set := func(lo int) itemset.Itemset {
		var s itemset.Itemset
		for it := lo; it < lo+4; it++ {
			if rng.Intn(2) == 0 {
				s = append(s, itemset.Item(it))
			}
		}
		return s
	}
	pick := func() float64 { return pool[rng.Intn(len(pool))] }
	rs := make([]Rule, n)
	for i := range rs {
		rs[i] = Rule{
			Antecedent: set(0), Consequent: set(4),
			Support: pick(), Confidence: pick(), Lift: pick(), Leverage: pick(),
		}
	}
	return rs
}

// TestDescOrdersAsDescendingCompare holds the measure mapping to
// cmp.Compare, reversed, on every pair of edge measures.
func TestDescOrdersAsDescendingCompare(t *testing.T) {
	for _, a := range edgeMeasures {
		for _, b := range edgeMeasures {
			if got, want := cmp.Compare(desc(a), desc(b)), cmp.Compare(b, a); got != want {
				t.Errorf("desc(%v) vs desc(%v): %d, cmp.Compare reversed %d", a, b, got, want)
			}
		}
	}
}

// TestKeyOrdersMatchReferences holds each order's key comparison to its
// reference on every pair of drawn rules, and each sort's output to the
// reference: sorted under it, and a permutation of its input.
func TestKeyOrdersMatchReferences(t *testing.T) {
	nonNeg := nonNegativeMeasures()
	cases := []struct {
		name string
		o    order
		pool []float64
		ref  func(ra, rb *Rule) int
		sort func([]Rule)
	}{
		{"serving", serving, edgeMeasures, refCompareRank, Rank},
		{"strength", strength, edgeMeasures, refStrength, Sort},
		{"strength-nonnegative", strength, nonNeg, refOrder, Sort},
		{"grouping", grouping, edgeMeasures, refGroup, Group},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				rs := edgeRules(rand.New(rand.NewSource(seed)), 60, c.pool)
				rule := func(i int32) *Rule { return &rs[i] }
				compare := comparison(c.o, rule)
				for i := range rs {
					for j := range rs {
						ki, kj := keyOf(&rs[i], c.o, int32(i)), keyOf(&rs[j], c.o, int32(j))
						if got, want := compare(ki, kj), c.ref(&rs[i], &rs[j]); got != want {
							t.Fatalf("seed %d: %v vs %v: %d, reference %d", seed, rs[i], rs[j], got, want)
						}
						if c.o == serving {
							if got, want := RankLess(rs[i], rs[j]), c.ref(&rs[i], &rs[j]) < 0; got != want {
								t.Fatalf("seed %d: RankLess(%v, %v) = %v", seed, rs[i], rs[j], got)
							}
						}
					}
				}
				sorted := slices.Clone(rs)
				c.sort(sorted)
				for i := 1; i < len(sorted); i++ {
					if c.ref(&sorted[i-1], &sorted[i]) > 0 {
						t.Fatalf("seed %d: %v before %v", seed, sorted[i-1], sorted[i])
					}
				}
				if !samePermutation(rs, sorted) {
					t.Fatalf("seed %d: the sort lost or duplicated a rule", seed)
				}
			}
		})
	}
}

// samePermutation reports whether a and b hold the same rules, bit for
// bit, the same number of times each.
func samePermutation(a, b []Rule) bool {
	if len(a) != len(b) {
		return false
	}
	used := make([]bool, len(b))
	for _, r := range a {
		found := false
		for j := range b {
			if !used[j] && sameBits(r, b[j]) {
				used[j], found = true, true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func sameBits(a, b Rule) bool {
	return a.Antecedent.Equal(b.Antecedent) && a.Consequent.Equal(b.Consequent) && a.Count == b.Count &&
		math.Float64bits(a.Support) == math.Float64bits(b.Support) &&
		math.Float64bits(a.Confidence) == math.Float64bits(b.Confidence) &&
		math.Float64bits(a.Lift) == math.Float64bits(b.Lift) &&
		math.Float64bits(a.Leverage) == math.Float64bits(b.Leverage)
}

// TestGroupRunsMatchBruteForce cuts Group's output into runs of one
// antecedent and holds them to a brute-force grouping: the distinct
// antecedents found by scanning, in ascending order, each with its rules
// picked out of the input and ranked by the reference serving order.
func TestGroupRunsMatchBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rs := edgeRules(rand.New(rand.NewSource(seed)), 200, edgeMeasures)
		var ants []itemset.Itemset
		for _, r := range rs {
			if !slices.ContainsFunc(ants, r.Antecedent.Equal) {
				ants = append(ants, r.Antecedent)
			}
		}
		slices.SortFunc(ants, itemset.Itemset.Compare)

		grouped := slices.Clone(rs)
		Group(grouped)
		lo := 0
		for _, ant := range ants {
			var want []Rule
			for _, r := range rs {
				if r.Antecedent.Equal(ant) {
					want = append(want, r)
				}
			}
			hi := lo
			for hi < len(grouped) && grouped[hi].Antecedent.Equal(ant) {
				hi++
			}
			run := grouped[lo:hi]
			if len(run) != len(want) || !samePermutation(run, want) {
				t.Fatalf("seed %d: the run of %v holds %d rules, brute force %d", seed, ant, len(run), len(want))
			}
			for i := 1; i < len(run); i++ {
				if refCompareRank(&run[i-1], &run[i]) > 0 {
					t.Fatalf("seed %d: the run of %v is not in rank order at %d", seed, ant, i)
				}
			}
			lo = hi
		}
		if lo != len(grouped) {
			t.Fatalf("seed %d: %d rules after the last brute-force group", seed, len(grouped)-lo)
		}
	}
}
