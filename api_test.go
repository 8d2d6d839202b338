package parapriori

import (
	"bytes"
	"strings"
	"testing"
)

func TestReadNamedDatasetAPI(t *testing.T) {
	in := "Bread, Milk\nBeer, Bread\n"
	data, vocab, err := ReadNamedDataset(strings.NewReader(in), ",")
	if err != nil {
		t.Fatal(err)
	}
	if data.Len() != 2 || vocab.Len() != 3 {
		t.Fatalf("parsed %d transactions, %d names", data.Len(), vocab.Len())
	}
	var buf bytes.Buffer
	if err := WriteVocabulary(&buf, vocab); err != nil {
		t.Fatal(err)
	}
	back, err := ReadVocabulary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != vocab.Len() {
		t.Errorf("vocabulary round trip: %d vs %d", back.Len(), vocab.Len())
	}
	v, err := NewVocabulary([]string{"a", "b"})
	if err != nil || v.Len() != 2 {
		t.Errorf("NewVocabulary: %v, %d", err, v.Len())
	}
}

func TestTraceTimelineAPI(t *testing.T) {
	data := tableI()
	rec := NewSpanCollector()
	if _, err := MineParallel(data, ParallelOptions{
		MineOptions: MineOptions{MinSupport: 0.4},
		Algorithm:   IDD,
		Procs:       2,
		Recorder:    rec,
	}); err != nil {
		t.Fatal(err)
	}
	tr := rec.Trace()
	if len(tr.Spans) == 0 {
		t.Fatal("no trace recorded")
	}
	var sb strings.Builder
	if err := TraceTimeline(&sb, tr, 50); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "P0") || !strings.Contains(sb.String(), "P1") {
		t.Errorf("timeline missing processor rows:\n%s", sb.String())
	}
}

func TestHPAThroughAPI(t *testing.T) {
	data := tableI()
	rep, err := MineParallel(data, ParallelOptions{
		MineOptions: MineOptions{MinSupport: 0.4},
		Algorithm:   HPA,
		Procs:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Mine(data, MineOptions{MinSupport: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.NumFrequent() != serial.NumFrequent() {
		t.Errorf("HPA found %d itemsets, serial %d", rep.Result.NumFrequent(), serial.NumFrequent())
	}
}

func TestFaultTolerantMiningAPI(t *testing.T) {
	gen := DefaultGen()
	gen.NumTransactions = 800
	gen.NumItems = 100
	gen.NumPatterns = 50
	gen.AvgTxnLen = 8
	gen.AvgPatternLen = 3
	gen.Seed = 11
	data, err := Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Mine(data, MineOptions{MinSupport: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := MineParallel(data, ParallelOptions{
		MineOptions: MineOptions{MinSupport: 0.02},
		Algorithm:   HD,
		Procs:       4,
		Faults: &FaultPlan{
			Seed:       9,
			Drop:       0.2,
			Crashes:    []Crash{{Rank: 1, At: 5e-3}},
			Stragglers: []Straggler{{Rank: 2, At: 0, Factor: 2}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Restarts == 0 {
		t.Error("scheduled crash triggered no recovery")
	}
	if got := rep.Result.NumFrequent(); got != want.NumFrequent() {
		t.Errorf("faulty run mined %d frequent itemsets, serial %d", got, want.NumFrequent())
	}
	if rep.Total.MessagesDropped == 0 {
		t.Error("lossy plan dropped no messages")
	}
}

func TestDefaultGenIsPaperWorkload(t *testing.T) {
	g := DefaultGen()
	if g.AvgTxnLen != 15 || g.AvgPatternLen != 6 || g.NumItems != 1000 {
		t.Errorf("DefaultGen = %+v, want the T15.I6 family", g)
	}
}

func TestPhaseBreakdownAPI(t *testing.T) {
	data := tableI()
	rep, err := MineParallel(data, ParallelOptions{
		MineOptions: MineOptions{MinSupport: 0.4},
		Algorithm:   CD,
		Procs:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	shares := rep.PhaseBreakdown()
	if len(shares) == 0 {
		t.Fatal("empty phase breakdown")
	}
	total := 0.0
	for name, share := range shares {
		if share < 0 {
			t.Errorf("phase %q has negative share %v", name, share)
		}
		total += share
	}
	if total < 0.99 || total > 1.01 {
		t.Errorf("shares sum to %v", total)
	}
}
