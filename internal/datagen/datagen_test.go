package datagen

import (
	"math"
	"testing"

	"parapriori/internal/apriori"
)

func small() Params {
	p := Defaults()
	p.NumTransactions = 3000
	p.NumItems = 200
	p.NumPatterns = 100
	p.AvgTxnLen = 10
	p.AvgPatternLen = 4
	p.Seed = 3
	return p
}

func TestGenerateBasicShape(t *testing.T) {
	p := small()
	d, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != p.NumTransactions {
		t.Fatalf("Len = %d, want %d", d.Len(), p.NumTransactions)
	}
	if d.NumItems < p.NumItems {
		t.Errorf("NumItems = %d, want >= %d", d.NumItems, p.NumItems)
	}
	for i, txn := range d.Transactions {
		if len(txn.Items) == 0 {
			t.Fatalf("transaction %d empty", i)
		}
		if !txn.Items.Valid() {
			t.Fatalf("transaction %d not sorted: %v", i, txn.Items)
		}
		if txn.ID != int64(i) {
			t.Fatalf("transaction %d has ID %d", i, txn.ID)
		}
		for _, it := range txn.Items {
			if int(it) < 0 || int(it) >= p.NumItems {
				t.Fatalf("item %d out of vocabulary", it)
			}
		}
	}
}

func TestAvgLengthNearTarget(t *testing.T) {
	p := small()
	d, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	got := d.AvgLen()
	// The carry/corruption mechanics shift the mean a little; ±40% is the
	// sanity band, the point is it tracks the knob.
	if got < p.AvgTxnLen*0.6 || got > p.AvgTxnLen*1.4 {
		t.Errorf("AvgLen = %v, want near %v", got, p.AvgTxnLen)
	}
	// Longer target yields longer transactions.
	p2 := p
	p2.AvgTxnLen = 20
	d2, err := Generate(p2)
	if err != nil {
		t.Fatal(err)
	}
	if d2.AvgLen() <= got {
		t.Errorf("AvgTxnLen 20 gave mean %v <= %v", d2.AvgLen(), got)
	}
}

func TestDeterministicBySeed(t *testing.T) {
	p := small()
	a, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Transactions {
		if !a.Transactions[i].Items.Equal(b.Transactions[i].Items) {
			t.Fatalf("transaction %d differs between identical seeds", i)
		}
	}
	p.Seed = 99
	c, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a.Transactions {
		if a.Transactions[i].Items.Equal(c.Transactions[i].Items) {
			same++
		}
	}
	if same == len(a.Transactions) {
		t.Error("different seeds produced identical datasets")
	}
}

func TestPrefixStability(t *testing.T) {
	// Generating more transactions with the same seed extends the sequence
	// (what the scaleup experiments rely on).
	p := small()
	short, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	p2 := p
	p2.NumTransactions = p.NumTransactions * 2
	long, err := Generate(p2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range short.Transactions {
		if !short.Transactions[i].Items.Equal(long.Transactions[i].Items) {
			t.Fatalf("prefix diverges at %d", i)
		}
	}
}

func TestPatternsProduceFrequentItemsets(t *testing.T) {
	// The whole point of the generator: planted patterns make non-trivial
	// frequent itemsets of size >= 2 at reasonable support.
	d, err := Generate(small())
	if err != nil {
		t.Fatal(err)
	}
	res, err := apriori.Mine(d, apriori.Params{MinSupport: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Levels) < 3 {
		t.Fatalf("only %d levels frequent; patterns are not showing up", len(res.Levels))
	}
	if len(res.Levels[1]) < 10 {
		t.Errorf("only %d frequent pairs", len(res.Levels[1]))
	}
}

func TestCorrelationSkewsCooccurrence(t *testing.T) {
	// With zero corruption, pattern items co-occur exactly; the mined
	// pair count at matched supports should exceed an independence model.
	p := small()
	p.CorruptionMean = 0
	p.CorruptionDev = 0
	d, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := apriori.Mine(d, apriori.Params{MinSupport: 0.02, MaxPasses: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Levels) < 2 || len(res.Levels[1]) == 0 {
		t.Error("no frequent pairs with uncorrupted patterns")
	}
}

func TestValidation(t *testing.T) {
	bad := []func(*Params){
		func(p *Params) { p.NumTransactions = -1 },
		func(p *Params) { p.NumItems = 0 },
		func(p *Params) { p.AvgTxnLen = 0 },
		func(p *Params) { p.AvgPatternLen = -2 },
		func(p *Params) { p.NumPatterns = 0 },
		func(p *Params) { p.Correlation = 1.5 },
		func(p *Params) { p.Correlation = -0.1 },
		func(p *Params) { p.AvgTxnLen = math.NaN() },
		func(p *Params) { p.AvgTxnLen = math.Inf(1) },
		func(p *Params) { p.AvgPatternLen = math.NaN() },
		func(p *Params) { p.AvgPatternLen = math.Inf(1) },
		func(p *Params) { p.Correlation = math.NaN() },
		func(p *Params) { p.CorruptionMean = math.NaN() },
		func(p *Params) { p.CorruptionMean = math.Inf(-1) },
		func(p *Params) { p.CorruptionDev = math.NaN() },
		func(p *Params) { p.CorruptionDev = math.Inf(1) },
	}
	for i, mutate := range bad {
		p := small()
		mutate(&p)
		if _, err := Generate(p); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestPoissonMean(t *testing.T) {
	g, err := New(small())
	if err != nil {
		t.Fatal(err)
	}
	const mean = 7.5
	const n = 20000
	total := 0
	for i := 0; i < n; i++ {
		total += g.poisson(mean)
	}
	got := float64(total) / n
	if math.Abs(got-mean) > 0.2 {
		t.Errorf("poisson mean = %v, want ~%v", got, mean)
	}
	if g.poisson(0) != 0 || g.poisson(-1) != 0 {
		t.Error("non-positive mean should give 0")
	}
}

func TestZeroTransactions(t *testing.T) {
	p := small()
	p.NumTransactions = 0
	d, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 0 {
		t.Errorf("Len = %d", d.Len())
	}
}
