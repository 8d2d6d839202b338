package parapriori

import (
	"bytes"
	"testing"
)

// TestEndToEndPipeline exercises the whole library the way the CLIs chain
// it: generate a workload, persist it in the binary format, reload it,
// mine in parallel on two different machine models, persist the frequent
// itemsets, reload them, and generate rules both serially and on the
// emulated cluster — asserting every stage agrees with the serial baseline.
func TestEndToEndPipeline(t *testing.T) {
	gen := DefaultGen()
	gen.NumTransactions = 2500
	gen.NumItems = 200
	gen.NumPatterns = 120
	gen.AvgTxnLen = 10
	gen.AvgPatternLen = 4
	gen.Seed = 77
	data, err := Generate(gen)
	if err != nil {
		t.Fatal(err)
	}

	// Dataset round trip through the binary format.
	var db bytes.Buffer
	if err := WriteDatasetBinary(&db, data); err != nil {
		t.Fatal(err)
	}
	reloaded, err := ReadDataset(&db)
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.Len() != data.Len() {
		t.Fatalf("binary round trip lost transactions: %d vs %d", reloaded.Len(), data.Len())
	}

	const minsup = 0.015
	serial, err := Mine(reloaded, MineOptions{MinSupport: minsup, DHPBuckets: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	if serial.NumFrequent() < 100 {
		t.Fatalf("workload too sparse: %d frequent itemsets", serial.NumFrequent())
	}

	// Parallel mining on both machine models must reproduce the serial
	// answer exactly.
	for _, machine := range []Machine{presetMachine(t, "t3e"), presetMachine(t, "sp2")} {
		rep, err := MineParallel(reloaded, ParallelOptions{
			MineOptions: MineOptions{MinSupport: minsup},
			Algorithm:   HD,
			Procs:       12,
			Machine:     machine,
		})
		if err != nil {
			t.Fatalf("%s: %v", machine.Name, err)
		}
		if rep.Result.NumFrequent() != serial.NumFrequent() {
			t.Fatalf("%s: %d itemsets, serial %d", machine.Name, rep.Result.NumFrequent(), serial.NumFrequent())
		}
		shares := rep.PhaseBreakdown()
		total := 0.0
		for _, v := range shares {
			total += v
		}
		if total < 0.99 || total > 1.01 {
			t.Errorf("%s: phase shares sum to %v: %v", machine.Name, total, shares)
		}
	}

	// Result persistence round trip.
	var rb bytes.Buffer
	if err := WriteResult(&rb, serial); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadResult(&rb)
	if err != nil {
		t.Fatal(err)
	}

	// Serial and emulated-parallel rule generation from the restored
	// result must agree.
	want, err := GenerateRules(restored, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	par, err := GenerateRulesOn(restored, RuleGenOptions{Procs: 6, Machine: presetMachine(t, "t3e"), MinConfidence: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Rules) != len(want) {
		t.Fatalf("parallel rules %d, serial %d", len(par.Rules), len(want))
	}
	for i := range want {
		if want[i].String() != par.Rules[i].String() {
			t.Fatalf("rule %d differs: %v vs %v", i, par.Rules[i], want[i])
		}
	}
}
