package core

import (
	"bytes"
	"errors"
	"testing"

	"parapriori/internal/apriori"
	"parapriori/internal/cluster"
	"parapriori/internal/datagen"
	"parapriori/internal/hashtree"
	"parapriori/internal/itemset"
)

// testData returns a small but non-trivial synthetic dataset shared by the
// equivalence tests.
func testData(tb testing.TB) *itemset.Dataset {
	tb.Helper()
	p := datagen.Defaults()
	p.NumTransactions = 1500
	p.NumItems = 120
	p.NumPatterns = 60
	p.AvgTxnLen = 10
	p.AvgPatternLen = 4
	p.Seed = 42
	d, err := datagen.Generate(p)
	if err != nil {
		tb.Fatalf("generate: %v", err)
	}
	return d
}

func serialResult(tb testing.TB, d *itemset.Dataset, minsup float64) *apriori.Result {
	tb.Helper()
	res, err := apriori.Mine(d, apriori.Params{MinSupport: minsup})
	if err != nil {
		tb.Fatalf("serial mine: %v", err)
	}
	return res
}

// resultBytes serializes a result with the WriteResult codec, the form in
// which two results are compared byte for byte.
func resultBytes(tb testing.TB, res *apriori.Result) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := apriori.WriteResult(&buf, res); err != nil {
		tb.Fatalf("serialize: %v", err)
	}
	return buf.Bytes()
}

// assertSameFrequent checks that a parallel report found exactly the serial
// algorithm's frequent itemsets with identical counts.
func assertSameFrequent(t *testing.T, want *apriori.Result, got *Report) {
	t.Helper()
	w, g := want.All(), got.Result.All()
	if len(w) != len(g) {
		t.Fatalf("frequent itemset count: got %d, want %d", len(g), len(w))
	}
	for i := range w {
		if !w[i].Items.Equal(g[i].Items) {
			t.Fatalf("itemset %d: got %v, want %v", i, g[i].Items, w[i].Items)
		}
		if w[i].Count != g[i].Count {
			t.Fatalf("itemset %d (%v): got count %d, want %d", i, w[i].Items, g[i].Count, w[i].Count)
		}
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	d := testData(t)
	const minsup = 0.02
	want := serialResult(t, d, minsup)
	if want.NumFrequent() < 50 {
		t.Fatalf("workload too easy: only %d frequent itemsets", want.NumFrequent())
	}
	algos := []Algorithm{CD, DD, DDComm, IDD, HD}
	ps := []int{1, 2, 3, 4, 8}
	for _, algo := range algos {
		for _, p := range ps {
			rep, err := Mine(d, Params{
				Algo:    algo,
				P:       p,
				Apriori: apriori.Params{MinSupport: minsup},
			})
			if err != nil {
				t.Fatalf("%s P=%d: %v", algo, p, err)
			}
			t.Run(string(algo), func(t *testing.T) { assertSameFrequent(t, want, rep) })
		}
	}
}

func TestHDDegeneratesToCDAndIDD(t *testing.T) {
	d := testData(t)
	const minsup = 0.02
	const p = 4
	mk := func(algo Algorithm, fixedG int) *Report {
		rep, err := Mine(d, Params{
			Algo:    algo,
			P:       p,
			FixedG:  fixedG,
			Apriori: apriori.Params{MinSupport: minsup},
		})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		return rep
	}
	cd := mk(CD, 0)
	hd1 := mk(HD, 1)
	idd := mk(IDD, 0)
	hdP := mk(HD, p)

	if cd.ResponseTime != hd1.ResponseTime {
		t.Errorf("HD(G=1) response %v != CD response %v", hd1.ResponseTime, cd.ResponseTime)
	}
	if idd.ResponseTime != hdP.ResponseTime {
		t.Errorf("HD(G=P) response %v != IDD response %v", hdP.ResponseTime, idd.ResponseTime)
	}
}

func TestMineDeterministic(t *testing.T) {
	d := testData(t)
	prm := Params{Algo: HD, P: 6, Apriori: apriori.Params{MinSupport: 0.02}}
	a, err := Mine(d, prm)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Mine(d, prm)
	if err != nil {
		t.Fatal(err)
	}
	if a.ResponseTime != b.ResponseTime {
		t.Errorf("nondeterministic response time: %v vs %v", a.ResponseTime, b.ResponseTime)
	}
	for i := range a.Clocks {
		if a.Clocks[i] != b.Clocks[i] {
			t.Errorf("proc %d clock differs: %v vs %v", i, a.Clocks[i], b.Clocks[i])
		}
	}
}

func TestDDSlowerThanIDD(t *testing.T) {
	d := testData(t)
	const minsup = 0.02
	run := func(algo Algorithm) float64 {
		rep, err := Mine(d, Params{Algo: algo, P: 8, Apriori: apriori.Params{MinSupport: minsup}})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		return rep.ResponseTime
	}
	dd, ddc, idd := run(DD), run(DDComm), run(IDD)
	if !(dd > ddc) {
		t.Errorf("expected DD (%v) > DD+comm (%v): ring communication should beat all-to-all", dd, ddc)
	}
	if !(ddc > idd) {
		t.Errorf("expected DD+comm (%v) > IDD (%v): intelligent partitioning should beat round-robin", ddc, idd)
	}
}

func TestLeafVisitsIDDBelowDD(t *testing.T) {
	d := testData(t)
	const minsup = 0.02
	run := func(algo Algorithm) float64 {
		rep, err := Mine(d, Params{Algo: algo, P: 8, Apriori: apriori.Params{MinSupport: minsup}})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		return rep.AvgLeafVisitsPerTxn()
	}
	dd, idd := run(DD), run(IDD)
	if !(idd < dd) {
		t.Errorf("Figure 11 shape violated: IDD leaf visits %v should be below DD %v", idd, dd)
	}
}

func TestParamsValidation(t *testing.T) {
	d := testData(t)
	ap := apriori.Params{MinSupport: 0.1}
	cases := []struct {
		field string
		prm   Params
	}{
		{"Algorithm", Params{Algo: "nope", P: 2, Apriori: ap}},
		{"MinSupport", Params{Algo: CD, P: 2, Apriori: apriori.Params{MinSupport: 0}}},
		{"MinSupport", Params{Algo: CD, P: 2, Apriori: apriori.Params{MinSupport: 1.5}}},
		{"FixedG", Params{Algo: HD, P: 4, FixedG: 3, Apriori: ap}},
		{"HashTreeFanout", Params{Algo: CD, P: 2, Apriori: apriori.Params{MinSupport: 0.1, Tree: hashtree.Config{Fanout: 1}}}},
		{"DHPBuckets", Params{Algo: CD, P: 2, Apriori: apriori.Params{MinSupport: 0.1, DHPBuckets: 512}}},
		{"MaxPasses", Params{Algo: CD, P: 2, Apriori: apriori.Params{MinSupport: 0.1, MaxPasses: -1}}},
		{"MaxLeafSize", Params{Algo: CD, P: 2, Apriori: apriori.Params{MinSupport: 0.1, Tree: hashtree.Config{MaxLeaf: -1}}}},
		{"HDThreshold", Params{Algo: HD, P: 2, HDThreshold: -1, Apriori: ap}},
		{"FixedG", Params{Algo: HD, P: 2, FixedG: -2, Apriori: ap}},
		{"Procs", Params{Algo: CD, P: 0, Apriori: ap}},
	}
	for _, c := range cases {
		t.Run(c.field, func(t *testing.T) {
			var fe *apriori.FieldError
			if _, err := Mine(d, c.prm); !errors.As(err, &fe) || fe.Field != c.field {
				t.Errorf("got %v, want a %s field error for %+v", err, c.field, c.prm)
			}
		})
	}
}

func TestMemoryCappedCDMultiScan(t *testing.T) {
	d := testData(t)
	m := cluster.T3E()
	m.MemoryBytes = 2048 // force partitioned trees
	rep, err := Mine(d, Params{Algo: CD, P: 2, Machine: m, Apriori: apriori.Params{MinSupport: 0.02}})
	if err != nil {
		t.Fatal(err)
	}
	want := serialResult(t, d, 0.02)
	assertSameFrequent(t, want, rep)
	multi := false
	for _, pass := range rep.Passes {
		if pass.TreeParts > 1 {
			multi = true
		}
	}
	if !multi {
		t.Error("expected at least one pass with TreeParts > 1 under a 2KB memory cap")
	}
}
