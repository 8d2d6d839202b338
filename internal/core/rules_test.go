package core

import (
	"math"
	"testing"

	"parapriori/internal/apriori"
	"parapriori/internal/cluster"
	"parapriori/internal/rules"
)

func TestParallelRulesMatchSerial(t *testing.T) {
	d := testData(t)
	res, err := apriori.Mine(d, apriori.Params{MinSupport: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	want, err := rules.Generate(res, rules.Params{MinConfidence: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("serial generation found no rules; workload too sparse")
	}
	for _, p := range []int{1, 2, 3, 8} {
		rep, err := GenerateRules(res, p, cluster.Machine{}, 0.6)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if len(rep.Rules) != len(want) {
			t.Fatalf("P=%d: %d rules, want %d", p, len(rep.Rules), len(want))
		}
		for i := range want {
			g, w := rep.Rules[i], want[i]
			if !g.Antecedent.Equal(w.Antecedent) || !g.Consequent.Equal(w.Consequent) || g.Count != w.Count {
				t.Fatalf("P=%d rule %d: %v vs %v", p, i, g, w)
			}
		}
		if rep.ResponseTime <= 0 || rep.Evaluated == 0 {
			t.Errorf("P=%d: report = %+v", p, rep)
		}
	}
}

func TestParallelRulesSpeedup(t *testing.T) {
	d := testData(t)
	res, err := apriori.Mine(d, apriori.Params{MinSupport: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	one, err := GenerateRules(res, 1, cluster.Machine{}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	eight, err := GenerateRules(res, 8, cluster.Machine{}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !(eight.ResponseTime < one.ResponseTime) {
		t.Errorf("8 procs (%v) not faster than 1 (%v)", eight.ResponseTime, one.ResponseTime)
	}
}

func TestParallelRulesValidation(t *testing.T) {
	res := &apriori.Result{N: 10}
	for _, conf := range []float64{1.5, math.NaN()} {
		if _, err := GenerateRules(res, 2, cluster.Machine{}, conf); err == nil {
			t.Errorf("confidence %v accepted", conf)
		}
	}
	rep, err := GenerateRules(res, 2, cluster.Machine{}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rules) != 0 {
		t.Errorf("rules from empty result: %d", len(rep.Rules))
	}
}
