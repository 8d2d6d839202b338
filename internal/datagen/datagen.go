// Package datagen implements the IBM Quest synthetic transaction generator
// described by Agrawal & Srikant (VLDB '94), the tool the paper used to
// build its T15.I6 workloads.  The real Quest code is long gone from
// almaden.ibm.com, so this is a from-scratch implementation of the published
// procedure: maximal potentially frequent patterns with exponentially
// distributed weights, correlation between consecutive patterns, per-pattern
// corruption levels, and Poisson-distributed transaction and pattern sizes.
package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"parapriori/internal/itemset"
)

// Params mirrors the knobs of the Quest generator.  The zero value is not
// usable; start from Defaults.
type Params struct {
	// NumTransactions is |D|, the number of transactions to generate.
	NumTransactions int
	// NumItems is |I|, the size of the item vocabulary (Quest default 1000).
	NumItems int
	// AvgTxnLen is |T|, the mean transaction size (the paper uses 15).
	AvgTxnLen float64
	// AvgPatternLen is the mean size of the maximal potentially frequent
	// itemsets (the paper uses 6).
	AvgPatternLen float64
	// NumPatterns is |L|, the number of maximal potentially frequent
	// itemsets (Quest default 2000).
	NumPatterns int
	// Correlation is the mean fraction of a pattern inherited from its
	// predecessor (Quest default 0.5).
	Correlation float64
	// CorruptionMean and CorruptionDev parametrize the per-pattern
	// corruption level, drawn from a clamped normal distribution
	// (Quest defaults 0.5 and 0.1).
	CorruptionMean float64
	CorruptionDev  float64
	// Seed makes generation reproducible.
	Seed int64
}

// Defaults returns the parameter set of the paper's workload: average
// transaction length 15 and average pattern length 6 over a 1000-item
// vocabulary, i.e. the T15.I6 family.
func Defaults() Params {
	return Params{
		NumTransactions: 10000,
		NumItems:        1000,
		AvgTxnLen:       15,
		AvgPatternLen:   6,
		NumPatterns:     2000,
		Correlation:     0.5,
		CorruptionMean:  0.5,
		CorruptionDev:   0.1,
		Seed:            1,
	}
}

func (p Params) validate() error {
	// Each float check is written to fail on NaN, which every comparison
	// is false for: a NaN mean length never ends poisson's loop.
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	switch {
	case p.NumTransactions < 0:
		return fmt.Errorf("datagen: NumTransactions %d < 0", p.NumTransactions)
	case p.NumItems <= 0:
		return fmt.Errorf("datagen: NumItems %d <= 0", p.NumItems)
	case !(p.AvgTxnLen > 0 && finite(p.AvgTxnLen)):
		return fmt.Errorf("datagen: AvgTxnLen %v is not a positive finite number", p.AvgTxnLen)
	case !(p.AvgPatternLen > 0 && finite(p.AvgPatternLen)):
		return fmt.Errorf("datagen: AvgPatternLen %v is not a positive finite number", p.AvgPatternLen)
	case p.NumPatterns <= 0:
		return fmt.Errorf("datagen: NumPatterns %d <= 0", p.NumPatterns)
	case !(p.Correlation >= 0 && p.Correlation <= 1):
		return fmt.Errorf("datagen: Correlation %v outside [0, 1]", p.Correlation)
	case !finite(p.CorruptionMean):
		return fmt.Errorf("datagen: CorruptionMean %v is not a finite number", p.CorruptionMean)
	case !finite(p.CorruptionDev):
		return fmt.Errorf("datagen: CorruptionDev %v is not a finite number", p.CorruptionDev)
	}
	return nil
}

// pattern is one maximal potentially frequent itemset.
type pattern struct {
	items      itemset.Itemset
	weight     float64 // cumulative weight for sampling
	corruption float64
}

// Generator produces transactions from a fixed pattern table.  Splitting
// table construction from transaction generation lets the scaleup
// experiments draw arbitrarily many transactions from the same underlying
// distribution, as the paper did when it "read the same data set multiple
// times".
type Generator struct {
	p        Params
	rng      *rand.Rand
	patterns []pattern
	nextID   int64
	carry    itemset.Itemset // pattern held over for the next transaction
}

// New builds a Generator, constructing the pattern table.
func New(p Params) (*Generator, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	g := &Generator{p: p, rng: rand.New(rand.NewSource(p.Seed))}
	g.buildPatterns()
	return g, nil
}

// buildPatterns constructs the |L| potentially frequent itemsets.  Pattern
// sizes are Poisson with mean AvgPatternLen; a fraction of each pattern's
// items (exponentially distributed with mean Correlation) comes from the
// previous pattern, the rest are picked at random; pattern weights are
// exponential with unit mean, normalized to sum to 1 and stored
// cumulatively for binary-search-free sampling.
func (g *Generator) buildPatterns() {
	g.patterns = make([]pattern, g.p.NumPatterns)
	var prev itemset.Itemset
	totalWeight := 0.0
	for i := range g.patterns {
		size := g.poisson(g.p.AvgPatternLen - 1)
		size++ // at least one item
		items := make(map[itemset.Item]struct{}, size)
		if i > 0 && len(prev) > 0 {
			frac := g.rng.ExpFloat64() * g.p.Correlation
			if frac > 1 {
				frac = 1
			}
			take := int(frac * float64(size))
			for j := 0; j < take && j < len(prev); j++ {
				items[prev[g.rng.Intn(len(prev))]] = struct{}{}
			}
		}
		for len(items) < size && len(items) < g.p.NumItems {
			items[itemset.Item(g.rng.Intn(g.p.NumItems))] = struct{}{}
		}
		flat := make([]itemset.Item, 0, len(items))
		for it := range items {
			flat = append(flat, it)
		}
		set := itemset.New(flat...)
		w := g.rng.ExpFloat64()
		totalWeight += w
		corr := g.rng.NormFloat64()*g.p.CorruptionDev + g.p.CorruptionMean
		corr = math.Max(0, math.Min(1, corr))
		g.patterns[i] = pattern{items: set, weight: totalWeight, corruption: corr}
		prev = set
	}
	// Normalize cumulative weights to [0, 1].
	for i := range g.patterns {
		g.patterns[i].weight /= totalWeight
	}
}

// pickPattern samples a pattern index proportionally to weight.
func (g *Generator) pickPattern() *pattern {
	x := g.rng.Float64()
	lo, hi := 0, len(g.patterns)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if g.patterns[mid].weight < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return &g.patterns[lo]
}

// corrupt returns the pattern's items with the Quest corruption applied:
// items are dropped from the (shuffled) pattern while a uniform draw stays
// below the pattern's corruption level.
func (g *Generator) corrupt(p *pattern) itemset.Itemset {
	kept := make([]itemset.Item, len(p.items))
	copy(kept, p.items)
	g.rng.Shuffle(len(kept), func(i, j int) { kept[i], kept[j] = kept[j], kept[i] })
	n := len(kept)
	for n > 0 && g.rng.Float64() < p.corruption {
		n--
	}
	return itemset.New(kept[:n]...)
}

// Next generates one transaction.
func (g *Generator) Next() itemset.Transaction {
	size := g.poisson(g.p.AvgTxnLen-1) + 1
	items := make(map[itemset.Item]struct{}, size)
	add := func(set itemset.Itemset) {
		for _, it := range set {
			items[it] = struct{}{}
		}
	}
	if g.carry != nil {
		add(g.carry)
		g.carry = nil
	}
	for len(items) < size {
		chosen := g.corrupt(g.pickPattern())
		if len(chosen) == 0 {
			continue
		}
		// Quest: if the pattern does not fit in the remaining budget, add it
		// anyway half the time and save it for the next transaction
		// otherwise.
		if len(items)+len(chosen) > size {
			if g.rng.Float64() < 0.5 {
				add(chosen)
			} else {
				g.carry = chosen
			}
			break
		}
		add(chosen)
	}
	if len(items) == 0 {
		items[itemset.Item(g.rng.Intn(g.p.NumItems))] = struct{}{}
	}
	flat := make([]itemset.Item, 0, len(items))
	for it := range items {
		flat = append(flat, it)
	}
	t := itemset.Transaction{ID: g.nextID, Items: itemset.New(flat...)}
	g.nextID++
	return t
}

// Generate produces the full dataset described by p.
func Generate(p Params) (*itemset.Dataset, error) {
	g, err := New(p)
	if err != nil {
		return nil, err
	}
	txns := make([]itemset.Transaction, p.NumTransactions)
	for i := range txns {
		txns[i] = g.Next()
	}
	d := itemset.NewDataset(txns)
	if d.NumItems < p.NumItems {
		d.NumItems = p.NumItems
	}
	return d, nil
}

// poisson samples a Poisson variate with the given mean using Knuth's
// product-of-uniforms method, which is exact and fast for the small means
// the generator uses (|T| = 15, |I| = 6).
func (g *Generator) poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= g.rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
