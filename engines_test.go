package parapriori

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// TestCountEnginesBitIdentical is the counting-engine subsystem's central
// property: the engine is a *how*, never a *what*.  Every registered engine,
// serial and under every supporting parallel formulation, must mine the
// byte-identical WriteResult output the default hashtree engine produces.
func TestCountEnginesBitIdentical(t *testing.T) {
	gen := DefaultGen()
	gen.NumTransactions = 1200
	gen.NumItems = 100
	gen.NumPatterns = 60
	gen.AvgTxnLen = 10
	gen.AvgPatternLen = 4
	gen.Seed = 21
	data, err := Generate(gen)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	const minsup = 0.02

	serialize := func(res *Result) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := WriteResult(&buf, res); err != nil {
			t.Fatalf("serialize: %v", err)
		}
		return buf.Bytes()
	}

	baseRes, err := Mine(data, MineOptions{MinSupport: minsup})
	if err != nil {
		t.Fatalf("baseline mine: %v", err)
	}
	baseline := serialize(baseRes)
	if baseRes.NumFrequent() == 0 {
		t.Fatal("trivial workload, no frequent itemsets")
	}

	engines := CountEngines()
	if want := []string{"bitset", "hashtree", "trie"}; !reflect.DeepEqual(engines, want) {
		t.Fatalf("CountEngines() = %v, want %v", engines, want)
	}

	for _, eng := range engines {
		t.Run("serial/"+eng, func(t *testing.T) {
			res, err := Mine(data, MineOptions{MinSupport: minsup, Engine: eng})
			if err != nil {
				t.Fatalf("mine: %v", err)
			}
			if !bytes.Equal(serialize(res), baseline) {
				t.Error("serial result differs from hashtree baseline")
			}
		})
		for _, algo := range []Algorithm{CD, IDD, HD} {
			t.Run(string(algo)+"/"+eng, func(t *testing.T) {
				rep, err := MineParallel(data, ParallelOptions{
					MineOptions: MineOptions{MinSupport: minsup, Engine: eng},
					Algorithm:   algo,
					Procs:       6,
				})
				if err != nil {
					t.Fatalf("mine: %v", err)
				}
				if !bytes.Equal(serialize(rep.Result), baseline) {
					t.Error("parallel result differs from hashtree baseline")
				}
			})
		}
	}
}

// TestEngineRestrictions pins the validation surface: unknown engines and
// unsupported engine/algorithm or engine/DHP combinations are named errors,
// not silent fallbacks.
func TestEngineRestrictions(t *testing.T) {
	gen := DefaultGen()
	gen.NumTransactions = 300
	gen.Seed = 5
	data, err := Generate(gen)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}

	if _, err := Mine(data, MineOptions{MinSupport: 0.05, Engine: "btree"}); err == nil {
		t.Error("unknown serial engine accepted")
	}
	// The pair filter only removes candidates before an engine sees them.
	if _, err := Mine(data, MineOptions{MinSupport: 0.05, Engine: "trie", DHPBuckets: 64}); err != nil {
		t.Errorf("DHPBuckets with the trie engine: %v", err)
	}
	// DD and DD+comm count through the engine seam like the grid
	// formulations; HPA probes a table of whole itemsets and has no
	// structure for an engine to replace.
	serial, err := Mine(data, MineOptions{MinSupport: 0.05})
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	for _, algo := range []Algorithm{DD, DDComm, HPA} {
		rep, err := MineParallel(data, ParallelOptions{
			MineOptions: MineOptions{MinSupport: 0.05, Engine: "bitset"},
			Algorithm:   algo,
			Procs:       4,
		})
		switch {
		case algo == HPA:
			var oe *OptionError
			if !errors.As(err, &oe) || oe.Field != "Engine" {
				t.Errorf("hpa with non-default engine: got %v, want an Engine OptionError", err)
			}
		case err != nil:
			t.Errorf("%s with bitset engine: %v", algo, err)
		case !reflect.DeepEqual(rep.Result.Levels, serial.Levels):
			t.Errorf("%s with bitset engine differs from serial", algo)
		}
	}
}
