package core

import (
	"strings"
	"testing"

	"parapriori/internal/apriori"
	"parapriori/internal/obsv"
)

// testRun is a run over prm.P ranks, all of them active, as Mine starts
// one, for the tests that drive a run's methods without mining.
func testRun(prm Params, numItems int) *run {
	r := &run{prm: prm, numItems: numItems, active: make([]int, prm.P)}
	for i := range r.active {
		r.active[i] = i
	}
	return r
}

func TestChooseG(t *testing.T) {
	chooseG := func(algo Algorithm, p, fixedG, threshold, m int) int {
		r := testRun(Params{Algo: algo, P: p, FixedG: fixedG, HDThreshold: threshold}, 0)
		return formulations[algo].rows(r, m)
	}
	if got := chooseG(CD, 16, 0, 100, 1e6); got != 1 {
		t.Errorf("CD chooseG = %d", got)
	}
	for _, algo := range []Algorithm{IDD, DD, DDComm, HPA} {
		if got := chooseG(algo, 16, 0, 100, 5); got != 16 {
			t.Errorf("%s chooseG = %d", algo, got)
		}
	}
	cases := []struct {
		m, p, threshold, want int
	}{
		{50, 16, 100, 1},   // fits in one row
		{150, 16, 100, 2},  // ceil(150/100)=2 divides 16
		{250, 16, 100, 4},  // need 3 -> next divisor 4
		{900, 16, 100, 16}, // need 9 -> next divisor 16
		{1e6, 16, 100, 16}, // capped at P
		{500, 12, 100, 6},  // need 5 -> next divisor of 12 is 6
	}
	for _, c := range cases {
		if got := chooseG(HD, c.p, 0, c.threshold, c.m); got != c.want {
			t.Errorf("HD chooseG(M=%d, P=%d, m=%d) = %d, want %d", c.m, c.p, c.threshold, got, c.want)
		}
	}
	if got := chooseG(HD, 16, 8, 100, 50); got != 8 {
		t.Errorf("FixedG ignored: %d", got)
	}
}

func TestBytesConservation(t *testing.T) {
	// Every byte sent is received: nothing is lost or double-counted in
	// the accounting, for every formulation.
	d := testData(t)
	for _, algo := range []Algorithm{CD, DD, DDComm, IDD, HD, HPA} {
		rep, err := Mine(d, Params{Algo: algo, P: 6, Apriori: apriori.Params{MinSupport: 0.02}})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if rep.Total.BytesSent != rep.Total.BytesReceived {
			t.Errorf("%s: sent %d bytes, received %d", algo, rep.Total.BytesSent, rep.Total.BytesReceived)
		}
		if rep.Total.MessagesSent != rep.Total.MessagesReceived {
			t.Errorf("%s: sent %d messages, received %d", algo, rep.Total.MessagesSent, rep.Total.MessagesReceived)
		}
	}
}

func TestPassReportsConsistent(t *testing.T) {
	d := testData(t)
	rep, err := Mine(d, Params{Algo: HD, P: 8, HDThreshold: 100, Apriori: apriori.Params{MinSupport: 0.02}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Passes) < 3 {
		t.Fatalf("only %d passes", len(rep.Passes))
	}
	for i, pass := range rep.Passes {
		if pass.K != i+1 {
			t.Errorf("pass %d has K=%d", i, pass.K)
		}
		if pass.GridRows*pass.GridCols != rep.P {
			t.Errorf("pass %d grid %dx%d does not tile %d procs", pass.K, pass.GridRows, pass.GridCols, rep.P)
		}
		if pass.Frequent > pass.Candidates {
			t.Errorf("pass %d: %d frequent from %d candidates", pass.K, pass.Frequent, pass.Candidates)
		}
		if pass.ResponseTime < 0 {
			t.Errorf("pass %d: negative response %v", pass.K, pass.ResponseTime)
		}
		if pass.K >= 2 && pass.GridRows > 1 && pass.BytesMoved == 0 {
			t.Errorf("pass %d: %d grid rows but no data moved", pass.K, pass.GridRows)
		}
	}
	// Pass response times sum to roughly the total (collectives sync the
	// boundary clocks, so small overlaps are fine).
	var sum float64
	for _, pass := range rep.Passes {
		sum += pass.ResponseTime
	}
	if sum > rep.ResponseTime*1.05 || sum < rep.ResponseTime*0.8 {
		t.Errorf("pass times sum to %v, total response %v", sum, rep.ResponseTime)
	}
	// Levels and passes agree.
	for i, pass := range rep.Passes {
		if i < len(rep.Result.Levels) && pass.Frequent != len(rep.Result.Levels[i]) {
			t.Errorf("pass %d reports %d frequent, level holds %d", pass.K, pass.Frequent, len(rep.Result.Levels[i]))
		}
	}
}

func TestCDMovesNoTransactions(t *testing.T) {
	d := testData(t)
	rep, err := Mine(d, Params{Algo: CD, P: 8, Apriori: apriori.Params{MinSupport: 0.02}})
	if err != nil {
		t.Fatal(err)
	}
	for _, pass := range rep.Passes {
		if pass.BytesMoved != 0 {
			t.Errorf("CD pass %d moved %d transaction bytes", pass.K, pass.BytesMoved)
		}
	}
	// But it does communicate counts: messages flow in every pass.
	if rep.Total.MessagesSent == 0 {
		t.Error("CD sent no messages at all")
	}
}

func TestIDDImbalanceGrowsWithP(t *testing.T) {
	// The paper's central criticism of IDD: with M fixed, more processors
	// mean fewer candidates each and worse balance.
	d := testData(t)
	imb := func(p int) float64 {
		rep, err := Mine(d, Params{Algo: IDD, P: p, Apriori: apriori.Params{MinSupport: 0.02, MaxPasses: 2}})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Passes[1].CandImbalance
	}
	small, large := imb(2), imb(16)
	if large < small {
		t.Errorf("candidate imbalance fell with P: %v at P=2, %v at P=16", small, large)
	}
}

func TestTraceThroughCore(t *testing.T) {
	d := testData(t)
	rec := obsv.NewCollector(obsv.ClockVirtual)
	rep, err := Mine(d, Params{Algo: IDD, P: 4, Recorder: rec, Apriori: apriori.Params{MinSupport: 0.02, MaxPasses: 2}})
	if err != nil {
		t.Fatal(err)
	}
	tr := rec.Trace()
	if tr.Ranks() != rep.P {
		t.Fatalf("trace covers %d ranks, want %d", tr.Ranks(), rep.P)
	}
	var sb strings.Builder
	if err := obsv.WriteTimeline(&sb, tr, 60); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "P0") || !strings.Contains(sb.String(), "#") {
		t.Errorf("timeline incomplete:\n%s", sb.String())
	}
}

func TestHDThresholdDrivesGrid(t *testing.T) {
	d := testData(t)
	grid := func(threshold int) int {
		rep, err := Mine(d, Params{Algo: HD, P: 8, HDThreshold: threshold, Apriori: apriori.Params{MinSupport: 0.02, MaxPasses: 2}})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Passes[1].GridRows
	}
	// A huge threshold keeps everything in one row (CD); a tiny one forces
	// the full IDD grid.
	if g := grid(1 << 30); g != 1 {
		t.Errorf("huge threshold: G=%d", g)
	}
	if g := grid(1); g != 8 {
		t.Errorf("tiny threshold: G=%d", g)
	}
}

func TestReportLeafVisits(t *testing.T) {
	d := testData(t)
	rep, err := Mine(d, Params{Algo: CD, P: 2, Apriori: apriori.Params{MinSupport: 0.02}})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.AvgLeafVisitsPerTxn(); got <= 0 {
		t.Errorf("AvgLeafVisitsPerTxn = %v", got)
	}
}
