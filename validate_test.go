package parapriori

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

// wantOptionError asserts err is a *OptionError naming the given struct
// and field.
func wantOptionError(t *testing.T, err error, strct, field string) {
	t.Helper()
	var oe *OptionError
	if !errors.As(err, &oe) {
		t.Fatalf("got %v, want *OptionError for %s.%s", err, strct, field)
	}
	if oe.Struct != strct || oe.Field != field {
		t.Fatalf("got %s.%s (%q), want %s.%s", oe.Struct, oe.Field, oe.Reason, strct, field)
	}
}

func TestMineOptionsValidate(t *testing.T) {
	wantOptionError(t, MineOptions{}.Validate(), "MineOptions", "MinSupport")
	wantOptionError(t, MineOptions{MinSupport: 1.5}.Validate(), "MineOptions", "MinSupport")
	wantOptionError(t, MineOptions{MinSupport: math.NaN()}.Validate(), "MineOptions", "MinSupport")
	wantOptionError(t, MineOptions{MinSupport: math.Inf(1)}.Validate(), "MineOptions", "MinSupport")
	wantOptionError(t, MineOptions{MinSupport: 0.1, MaxPasses: -1}.Validate(), "MineOptions", "MaxPasses")
	// A fanout-1 tree cannot split a leaf, and its memory estimate divides
	// by Fanout-1: refused up front, not a divide-by-zero panic later.
	wantOptionError(t, MineOptions{MinSupport: 0.1, HashTreeFanout: 1}.Validate(), "MineOptions", "HashTreeFanout")
	if err := (MineOptions{MinSupport: 0.1, HashTreeFanout: 2, DHPBuckets: 64}).Validate(); err != nil {
		t.Fatalf("valid serial options rejected: %v", err)
	}
	if _, err := Mine(FromItems([][]Item{{1, 2}}), MineOptions{MinSupport: -1}); err == nil {
		t.Fatal("Mine accepted negative support")
	}
	_, err := Mine(FromItems([][]Item{{1, 2}, {1, 2, 3}}), MineOptions{MinSupport: 0.2, HashTreeFanout: 1})
	wantOptionError(t, err, "MineOptions", "HashTreeFanout")
}

func TestParallelOptionsValidate(t *testing.T) {
	ok := ParallelOptions{MineOptions: MineOptions{MinSupport: 0.1}, Algorithm: HD, Procs: 8}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid parallel options rejected: %v", err)
	}

	bad := ok
	bad.Procs = 0
	wantOptionError(t, bad.Validate(), "ParallelOptions", "Procs")

	bad = ok
	bad.MinSupport = math.NaN()
	wantOptionError(t, bad.Validate(), "ParallelOptions", "MinSupport")

	bad = ok
	bad.Algorithm = "bogus"
	wantOptionError(t, bad.Validate(), "ParallelOptions", "Algorithm")

	// The serial-only knob MineParallel used to ignore silently is now a
	// named error.
	bad = ok
	bad.DHPBuckets = 1024
	wantOptionError(t, bad.Validate(), "ParallelOptions", "DHPBuckets")
	bad = ok
	bad.HashTreeFanout = 1
	wantOptionError(t, bad.Validate(), "ParallelOptions", "HashTreeFanout")

	bad = ok
	bad.FixedG = 3 // does not divide 8
	wantOptionError(t, bad.Validate(), "ParallelOptions", "FixedG")
	bad = ok
	bad.Algorithm = CD
	bad.FixedG = 2 // grid shape is HD-only
	wantOptionError(t, bad.Validate(), "ParallelOptions", "FixedG")

	bad = ok
	bad.Algorithm = DD
	bad.Faults = &FaultPlan{}
	if err := bad.Validate(); err != nil {
		t.Fatalf("DD with a fault plan rejected: %v", err)
	}
	bad = ok
	bad.Algorithm = HPA
	bad.CheckpointDir = t.TempDir()
	if err := bad.Validate(); err != nil {
		t.Fatalf("HPA with CheckpointDir rejected: %v", err)
	}
	bad.Engine = "trie"
	wantOptionError(t, bad.Validate(), "ParallelOptions", "Engine")

	// Under a memory cap CD sizes its tree partitions from the fanout.
	capped := presetMachine(t, "t3e")
	capped.MemoryBytes = 2048
	_, err := MineParallel(FromItems([][]Item{{1, 2}, {1, 2}, {1, 2, 3}}), ParallelOptions{
		MineOptions: MineOptions{MinSupport: 0.2, HashTreeFanout: 1},
		Algorithm:   CD, Procs: 2, Machine: capped,
	})
	wantOptionError(t, err, "ParallelOptions", "HashTreeFanout")
}

func TestRuleGenOptionsValidate(t *testing.T) {
	wantOptionError(t, RuleGenOptions{Procs: 0, MinConfidence: 0.5}.Validate(), "RuleGenOptions", "Procs")
	wantOptionError(t, RuleGenOptions{Procs: 2, MinConfidence: 1.5}.Validate(), "RuleGenOptions", "MinConfidence")
	wantOptionError(t, RuleGenOptions{Procs: 2, MinConfidence: math.NaN()}.Validate(), "RuleGenOptions", "MinConfidence")
	if err := (RuleGenOptions{Procs: 2, MinConfidence: 0.5}).Validate(); err != nil {
		t.Fatalf("valid rule-gen options rejected: %v", err)
	}
}

func TestServeOptionsValidate(t *testing.T) {
	wantOptionError(t, ServeOptions{Workers: -1}.Validate(), "ServeOptions", "Workers")
	if err := (ServeOptions{CacheSize: -1}).Validate(); err != nil {
		t.Fatalf("negative CacheSize means disabled and must be valid: %v", err)
	}
}

// TestGenerateRulesOnMatchesSerial checks the emulated-parallel rule step
// produces exactly the serial rule set.
func TestGenerateRulesOnMatchesSerial(t *testing.T) {
	data := FromItems([][]Item{
		{1, 2, 3}, {1, 2, 3}, {1, 2}, {2, 3}, {1, 3}, {1, 2, 3, 4},
	})
	res, err := Mine(data, MineOptions{MinSupport: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	a, err := GenerateRulesOn(res, RuleGenOptions{Procs: 4, Machine: presetMachine(t, "t3e"), MinConfidence: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := GenerateRules(res, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Rules, serial) {
		t.Fatal("parallel rules differ from serial rules")
	}
}

// TestNaNOptionsRefused: a NaN threshold or rate, which every range
// comparison is false for, is refused by each entry point with an error
// naming its field — not mined at MinCount 1, not let through the
// confidence test, not looped on by the generator, not ignored by the
// fault plan.
func TestNaNOptionsRefused(t *testing.T) {
	data := FromItems([][]Item{{1, 2}, {1, 2, 3}, {2, 3}})
	nan := math.NaN()
	_, err := Mine(data, MineOptions{MinSupport: nan})
	wantOptionError(t, err, "MineOptions", "MinSupport")
	_, err = MineParallel(data, ParallelOptions{MineOptions: MineOptions{MinSupport: nan}, Algorithm: CD, Procs: 2})
	wantOptionError(t, err, "ParallelOptions", "MinSupport")

	res, err := Mine(data, MineOptions{MinSupport: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := GenerateRules(res, nan); err == nil || !strings.Contains(err.Error(), "MinConfidence") {
		t.Errorf("GenerateRules at NaN confidence: %v, want an error naming MinConfidence", err)
	}
	_, err = GenerateRulesOn(res, RuleGenOptions{Procs: 2, MinConfidence: nan})
	wantOptionError(t, err, "RuleGenOptions", "MinConfidence")

	for field, mutate := range map[string]func(*GenOptions){
		"AvgTxnLen":   func(o *GenOptions) { o.AvgTxnLen = nan },
		"Correlation": func(o *GenOptions) { o.Correlation = nan },
	} {
		o := GenOptions{NumTransactions: 50, NumItems: 20, AvgTxnLen: 4, AvgPatternLen: 2, NumPatterns: 5, Correlation: 0.5}
		mutate(&o)
		if _, err := Generate(o); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("Generate with %s NaN: %v, want an error naming it", field, err)
		}
	}

	_, err = MineParallel(data, ParallelOptions{MineOptions: MineOptions{MinSupport: 0.3}, Algorithm: CD, Procs: 2, Faults: &FaultPlan{Drop: nan}})
	if err == nil || !strings.Contains(err.Error(), "Drop") {
		t.Errorf("MineParallel under FaultPlan{Drop: NaN}: %v, want an error naming Drop", err)
	}
}
