package core

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"parapriori/internal/apriori"
	"parapriori/internal/cluster"
)

// crashPlan schedules one transient crash early enough to interrupt the
// mining (the fast T3E run finishes in well under a virtual second).
func crashPlan(rank int, at float64) *cluster.FaultPlan {
	return &cluster.FaultPlan{Seed: 1, Crashes: []cluster.Crash{{Rank: rank, At: at}}}
}

// faultAlgos is every formulation that counts through the engine seam.  HPA
// enumerates every size-k subset of every transaction — a fault cell of it
// is seconds here, tens under -race — so it runs one plan, the one that
// shrinks its hash ring (TestPermanentCrashDegrades).
var faultAlgos = []Algorithm{CD, DD, DDComm, IDD, HD}

func mineFaulty(t *testing.T, algo Algorithm, p int, plan *cluster.FaultPlan) *Report {
	t.Helper()
	d := testData(t)
	rep, err := Mine(d, Params{
		Algo:    algo,
		P:       p,
		Apriori: apriori.Params{MinSupport: 0.02},
		Faults:  plan,
	})
	if err != nil {
		t.Fatalf("%s P=%d under faults: %v", algo, p, err)
	}
	return rep
}

// TestCrashRecoveryMatchesSerial is the acceptance criterion: a crash plus
// recovery run for each formulation still mines exactly the serial
// algorithm's frequent itemsets.
func TestCrashRecoveryMatchesSerial(t *testing.T) {
	d := testData(t)
	want := serialResult(t, d, 0.02)
	for _, algo := range faultAlgos {
		t.Run(string(algo), func(t *testing.T) {
			rep := mineFaulty(t, algo, 4, crashPlan(2, 10e-3))
			if rep.Restarts == 0 {
				t.Fatalf("crash did not trigger a recovery (restarts = 0); schedule the crash earlier")
			}
			assertSameFrequent(t, want, rep)
			if len(rep.LostRanks) != 0 {
				t.Errorf("transient crash lost ranks %v", rep.LostRanks)
			}
		})
	}
}

// TestPermanentCrashDegrades checks graceful degradation: a permanently
// crashed rank is removed, its shards adopted, and the result still exact.
func TestPermanentCrashDegrades(t *testing.T) {
	d := testData(t)
	want := serialResult(t, d, 0.02)
	for _, algo := range []Algorithm{CD, DD, DDComm, IDD, HD, HPA} {
		t.Run(string(algo), func(t *testing.T) {
			plan := &cluster.FaultPlan{Seed: 2, Crashes: []cluster.Crash{{Rank: 1, At: 10e-3, Permanent: true}}}
			rep := mineFaulty(t, algo, 4, plan)
			if rep.Restarts == 0 {
				t.Fatalf("crash did not trigger a recovery")
			}
			if len(rep.LostRanks) != 1 || rep.LostRanks[0] != 1 {
				t.Fatalf("LostRanks = %v, want [1]", rep.LostRanks)
			}
			assertSameFrequent(t, want, rep)
		})
	}
}

// TestLossyRunMatchesSerial drives a full mining run through message-level
// faults (no crashes): retries and reordering must be invisible in the
// result and visible in the stats.
func TestLossyRunMatchesSerial(t *testing.T) {
	d := testData(t)
	want := serialResult(t, d, 0.02)
	plan := &cluster.FaultPlan{Seed: 3, Drop: 0.05, Dup: 0.05, Reorder: 0.05}
	for _, algo := range faultAlgos {
		t.Run(string(algo), func(t *testing.T) {
			rep := mineFaulty(t, algo, 4, plan)
			assertSameFrequent(t, want, rep)
			if rep.Total.MessagesDropped == 0 || rep.Total.RetryTime <= 0 {
				t.Errorf("lossy plan produced no retry accounting: %+v", rep.Total)
			}
			if breakdown := rep.PhaseBreakdown(); breakdown["retry"] <= 0 {
				t.Errorf("PhaseBreakdown missing retry share: %v", breakdown)
			}
		})
	}
}

// TestFaultDeterminism: two runs with the same seed, plan and workload must
// be bit-identical — itemsets, stats, and virtual clocks.
func TestFaultDeterminism(t *testing.T) {
	plan := &cluster.FaultPlan{
		Seed: 4, Drop: 0.04, Dup: 0.04, Reorder: 0.04, Delay: 0.04, DelaySeconds: 1e-4,
		Crashes:    []cluster.Crash{{Rank: 1, At: 15e-3}},
		Stragglers: []cluster.Straggler{{Rank: 2, At: 5e-3, Factor: 2}},
	}
	for _, algo := range faultAlgos {
		t.Run(string(algo), func(t *testing.T) {
			a := mineFaulty(t, algo, 4, plan)
			b := mineFaulty(t, algo, 4, plan)
			if a.ResponseTime != b.ResponseTime {
				t.Errorf("response time differs: %v vs %v", a.ResponseTime, b.ResponseTime)
			}
			if !reflect.DeepEqual(a.Clocks, b.Clocks) {
				t.Errorf("clocks differ:\n%v\n%v", a.Clocks, b.Clocks)
			}
			if !reflect.DeepEqual(a.Total, b.Total) {
				t.Errorf("stats differ:\n%+v\n%+v", a.Total, b.Total)
			}
			if a.Restarts != b.Restarts {
				t.Errorf("restarts differ: %d vs %d", a.Restarts, b.Restarts)
			}
			aw, bw := a.Result.All(), b.Result.All()
			if len(aw) != len(bw) {
				t.Fatalf("itemset counts differ: %d vs %d", len(aw), len(bw))
			}
			for i := range aw {
				if !aw[i].Items.Equal(bw[i].Items) || aw[i].Count != bw[i].Count {
					t.Fatalf("itemset %d differs", i)
				}
			}
		})
	}
}

// TestStragglerAddsOverhead: a slowed processor must raise the response
// time of an otherwise fault-free run.
func TestStragglerAddsOverhead(t *testing.T) {
	d := testData(t)
	base, err := Mine(d, Params{Algo: CD, P: 4, Apriori: apriori.Params{MinSupport: 0.02}})
	if err != nil {
		t.Fatal(err)
	}
	slow := mineFaulty(t, CD, 4, &cluster.FaultPlan{
		Stragglers: []cluster.Straggler{{Rank: 0, At: 0, Factor: 4}},
	})
	if !(slow.ResponseTime > base.ResponseTime) {
		t.Errorf("straggler response %v not above baseline %v", slow.ResponseTime, base.ResponseTime)
	}
	assertSameFrequent(t, serialResult(t, d, 0.02), slow)
}

// TestFaultsLegalEverywhere: a fault plan is not a hole for any formulation
// over either source; what hole still lists has nothing to do with faults.
func TestFaultsLegalEverywhere(t *testing.T) {
	for algo := range formulations {
		for _, streamed := range []bool{false, true} {
			prm := Params{Algo: algo, P: 4, Faults: &cluster.FaultPlan{Drop: 0.1}}
			plain := prm
			plain.Faults = nil
			field, _ := prm.hole(streamed)
			if plainField, _ := plain.hole(streamed); field != plainField {
				t.Errorf("%s/streamed=%v: hole reports %q under a fault plan, %q without", algo, streamed, field, plainField)
			}
		}
	}
}

// TestRecoveryGivesUp: an unrecoverable plan (every rank permanently
// crashing) must return an error rather than loop.
func TestRecoveryGivesUp(t *testing.T) {
	d := testData(t)
	plan := &cluster.FaultPlan{Crashes: []cluster.Crash{
		{Rank: 0, At: 1e-3, Permanent: true},
		{Rank: 1, At: 1e-3, Permanent: true},
	}}
	_, err := Mine(d, Params{Algo: CD, P: 2, Apriori: apriori.Params{MinSupport: 0.02}, Faults: plan})
	if err == nil {
		t.Fatal("expected an error when every rank is lost")
	}
}

// TestRecoveryGivesUpAfterMaxRestarts — under every formulation, a rank that
// crashes once more than the restart bound allows ends the run with the bound
// in the error and the last crash still reachable through errors.As.  Nine
// transient crashes sit at increasing virtual times inside the fault-free
// run; entries are one-shot and the respawned clock keeps the crash time, so
// each fires on its own attempt.
func TestRecoveryGivesUpAfterMaxRestarts(t *testing.T) {
	d := testData(t)
	for _, algo := range faultAlgos {
		t.Run(string(algo), func(t *testing.T) {
			prm := Params{Algo: algo, P: 4, Apriori: apriori.Params{MinSupport: 0.02}}
			base, err := Mine(d, prm)
			if err != nil {
				t.Fatal(err)
			}
			plan := &cluster.FaultPlan{Seed: 5}
			for i := 1; i <= MaxRestarts+1; i++ {
				at := base.ResponseTime * float64(i) / float64(MaxRestarts+2)
				plan.Crashes = append(plan.Crashes, cluster.Crash{Rank: 1, At: at})
			}

			// One crash fewer is exactly the bound: the run recovers from each.
			prm.Faults = &cluster.FaultPlan{Seed: 5, Crashes: plan.Crashes[:MaxRestarts]}
			rep, err := Mine(d, prm)
			if err != nil {
				t.Fatalf("%d crashes: %v", MaxRestarts, err)
			}
			if rep.Restarts != MaxRestarts {
				t.Fatalf("%d crashes: %d restarts, want one per crash", MaxRestarts, rep.Restarts)
			}

			// One crash more ends the run.  It must return, not loop: a hang
			// here is this test's failure, reported by the test binary's
			// -timeout.
			prm.Faults = plan
			_, err = Mine(d, prm)
			if err == nil {
				t.Fatalf("%d crashes with a bound of %d restarts: Mine succeeded", MaxRestarts+1, MaxRestarts)
			}
			if want := fmt.Sprintf("giving up after %d recovery attempts", MaxRestarts); !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not say %q", err, want)
			}
			var ce *cluster.CrashError
			if !errors.As(err, &ce) {
				t.Fatalf("error %v does not unwrap to a *cluster.CrashError", err)
			}
			if ce.Rank != 1 {
				t.Errorf("unwrapped crash is rank %d, want 1", ce.Rank)
			}
		})
	}
}
