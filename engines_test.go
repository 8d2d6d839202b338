package parapriori

import (
	"errors"
	"reflect"
	"testing"
)

// TestEngineRestrictions pins the validation surface: the engine names,
// and unknown engines and unsupported engine/algorithm or engine/DHP
// combinations as named errors, not silent fallbacks.  That every engine
// mines the same result in every legal cell is TestLegalCellsMatchNaive's.
func TestEngineRestrictions(t *testing.T) {
	if got, want := CountEngines(), []string{"bitset", "hashtree", "trie"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("CountEngines() = %v, want %v", got, want)
	}
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
