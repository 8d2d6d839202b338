package parapriori

import (
	"bytes"
	"testing"
)

func tableI() *Dataset {
	// Table I with Bread=1, Beer=2, Coke=3, Diaper=4, Milk=5.
	return FromItems([][]Item{
		{1, 3, 5}, {2, 1}, {2, 3, 4, 5}, {2, 1, 4, 5}, {3, 4, 5},
	})
}

func TestMineQuickstart(t *testing.T) {
	res, err := Mine(tableI(), MineOptions{MinSupport: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	// 5 singletons + 8 pairs + ... the known Table I answer at 40%: all 5
	// items are frequent; {Diaper, Milk} has count 3.
	if len(res.Levels[0]) != 5 {
		t.Errorf("F1 = %d itemsets", len(res.Levels[0]))
	}
	if got := res.SupportIndex()[NewItemset(4, 5).Key()]; got != 3 {
		t.Errorf("σ(Diaper, Milk) = %d, want 3", got)
	}
}

func TestGenerateRulesQuickstart(t *testing.T) {
	res, err := Mine(tableI(), MineOptions{MinSupport: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	rules, err := GenerateRules(res, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range rules {
		if r.Antecedent.Equal(NewItemset(4, 5)) && r.Consequent.Equal(NewItemset(2)) {
			found = true
			if r.Support != 0.4 {
				t.Errorf("support = %v", r.Support)
			}
		}
	}
	if !found {
		t.Error("{Diaper, Milk} => {Beer} not generated")
	}
}

func TestMineParallelMatchesSerial(t *testing.T) {
	gen := DefaultGen()
	gen.NumTransactions = 2000
	gen.NumItems = 150
	gen.NumPatterns = 80
	gen.AvgTxnLen = 10
	gen.AvgPatternLen = 4
	data, err := Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Mine(data, MineOptions{MinSupport: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{CD, DD, DDComm, IDD, HD} {
		rep, err := MineParallel(data, ParallelOptions{
			MineOptions: MineOptions{MinSupport: 0.02},
			Algorithm:   algo,
			Procs:       6,
		})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if rep.Result.NumFrequent() != serial.NumFrequent() {
			t.Errorf("%s found %d itemsets, serial %d", algo, rep.Result.NumFrequent(), serial.NumFrequent())
		}
		if rep.ResponseTime <= 0 {
			t.Errorf("%s: response time %v", algo, rep.ResponseTime)
		}
	}
}

// presetMachine returns the cost model of the named -machine preset.
func presetMachine(t testing.TB, name string) Machine {
	t.Helper()
	p, ok := MachineByName(name)
	if !ok {
		t.Fatalf("no machine preset %q", name)
	}
	return p.Machine()
}

func TestMineParallelMachines(t *testing.T) {
	data := tableI()
	for _, preset := range Machines() {
		m := preset.Machine()
		rep, err := MineParallel(data, ParallelOptions{
			MineOptions: MineOptions{MinSupport: 0.4},
			Algorithm:   HD,
			Procs:       2,
			Machine:     m,
		})
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if rep.Result.NumFrequent() == 0 {
			t.Errorf("%s: nothing mined", m.Name)
		}
	}
}

func TestDatasetIO(t *testing.T) {
	data := tableI()
	var buf bytes.Buffer
	if err := WriteDataset(&buf, data); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDataset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != data.Len() {
		t.Errorf("round trip: %d vs %d", back.Len(), data.Len())
	}
}

func TestMineOptionsKnobs(t *testing.T) {
	data := tableI()
	res, err := Mine(data, MineOptions{
		MinSupport:     0.4,
		HashTreeFanout: 3,
		MaxLeafSize:    2,
		MaxPasses:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Levels) > 2 {
		t.Errorf("MaxPasses ignored: %d levels", len(res.Levels))
	}
}

func TestInvalidOptionsSurface(t *testing.T) {
	data := tableI()
	if _, err := MineParallel(data, ParallelOptions{
		MineOptions: MineOptions{MinSupport: 0}, Algorithm: CD, Procs: 2,
	}); err == nil {
		t.Error("zero support accepted")
	}
	if _, err := MineParallel(data, ParallelOptions{
		MineOptions: MineOptions{MinSupport: 0.1}, Algorithm: "bogus", Procs: 2,
	}); err == nil {
		t.Error("bogus algorithm accepted")
	}
}
