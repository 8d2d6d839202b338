package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parapriori/internal/apriori"
	"parapriori/internal/cluster"
)

// TestCheckpointResume is the kill-and-resume scenario: a run stopped after
// two passes (standing in for a killed process — MaxPasses stops exactly at
// a pass boundary, which is also all a kill can leave behind thanks to the
// atomic rename) leaves a checkpoint, and a second full run over the same
// directory resumes from pass 3 and produces byte-identical results to an
// uninterrupted mine.
func TestCheckpointResume(t *testing.T) {
	d := testData(t)
	const minsup = 0.02
	for _, algo := range []Algorithm{CD, DD, DDComm, IDD, HD, HPA} {
		t.Run(string(algo), func(t *testing.T) {
			dir := t.TempDir()
			prm := Params{Algo: algo, P: 4, Apriori: apriori.Params{MinSupport: minsup}, CheckpointDir: dir}

			// The "killed" run: stops after pass 2, checkpoint on disk.
			first := prm
			first.Apriori.MaxPasses = 2
			if _, err := Mine(d, first); err != nil {
				t.Fatalf("interrupted run: %v", err)
			}
			if _, err := os.Stat(filepath.Join(dir, checkpointFile)); err != nil {
				t.Fatalf("no checkpoint written: %v", err)
			}

			// The resumed run mines only passes 3+.
			rep, err := Mine(d, prm)
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			if rep.ResumedPasses != 2 {
				t.Fatalf("ResumedPasses = %d, want 2", rep.ResumedPasses)
			}
			for k, pass := range rep.Passes {
				if want := k < 2; pass.Restored != want {
					t.Fatalf("pass %d Restored = %v, want %v", pass.K, pass.Restored, want)
				}
			}

			// Byte-identical to a fresh, uninterrupted mine.
			fresh, err := Mine(d, Params{Algo: algo, P: 4, Apriori: apriori.Params{MinSupport: minsup}})
			if err != nil {
				t.Fatalf("fresh run: %v", err)
			}
			var got, want bytes.Buffer
			if err := apriori.WriteResult(&got, rep.Result); err != nil {
				t.Fatal(err)
			}
			if err := apriori.WriteResult(&want, fresh.Result); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatal("resumed result differs from an uninterrupted mine")
			}
		})
	}
}

// TestCheckpointCompleteRunIsStable: resuming a directory whose checkpoint
// already covers the whole mine re-mines nothing and still reports the full
// result.
func TestCheckpointCompleteRunIsStable(t *testing.T) {
	d := testData(t)
	dir := t.TempDir()
	prm := Params{Algo: HD, P: 4, Apriori: apriori.Params{MinSupport: 0.02}, CheckpointDir: dir}
	full, err := Mine(d, prm)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Mine(d, prm)
	if err != nil {
		t.Fatal(err)
	}
	if again.ResumedPasses != len(full.Passes) {
		t.Fatalf("ResumedPasses = %d, want all %d", again.ResumedPasses, len(full.Passes))
	}
	assertSameFrequent(t, full.Result, again)
}

// TestCheckpointWorkloadMismatch: a checkpoint from a different workload
// must fail the run, not silently seed wrong levels.
func TestCheckpointWorkloadMismatch(t *testing.T) {
	d := testData(t)
	dir := t.TempDir()
	if _, err := Mine(d, Params{Algo: CD, P: 2, Apriori: apriori.Params{MinSupport: 0.02}, CheckpointDir: dir}); err != nil {
		t.Fatal(err)
	}
	// Same data, different support threshold → different minCount.
	_, err := Mine(d, Params{Algo: CD, P: 2, Apriori: apriori.Params{MinSupport: 0.05}, CheckpointDir: dir})
	if err == nil || !strings.Contains(err.Error(), "different workload") {
		t.Fatalf("mismatched checkpoint not rejected: %v", err)
	}
}

// TestCheckpointWithFaults: persistence composes with fault-tolerant
// execution — a crash-recovery run under CheckpointDir still mines the
// exact serial result and leaves a complete checkpoint behind.
func TestCheckpointWithFaults(t *testing.T) {
	d := testData(t)
	want := serialResult(t, d, 0.02)
	dir := t.TempDir()
	rep, err := Mine(d, Params{
		Algo:          HD,
		P:             4,
		Apriori:       apriori.Params{MinSupport: 0.02},
		CheckpointDir: dir,
		Faults:        &cluster.FaultPlan{Seed: 1, Crashes: []cluster.Crash{{Rank: 2, At: 10e-3}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Restarts == 0 {
		t.Fatal("crash did not trigger a recovery")
	}
	assertSameFrequent(t, want, rep)

	f, err := os.Open(filepath.Join(dir, checkpointFile))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved, err := apriori.ReadResult(f)
	if err != nil {
		t.Fatal(err)
	}
	if saved.NumFrequent() != want.NumFrequent() {
		t.Fatalf("checkpoint holds %d frequent itemsets, want %d", saved.NumFrequent(), want.NumFrequent())
	}
}

// TestCheckpointDirValidation: checkpointing belongs to the pass skeleton,
// so the formulations that used to reject CheckpointDir now write one.
func TestCheckpointDirValidation(t *testing.T) {
	d := testData(t)
	for _, algo := range []Algorithm{DD, DDComm, HPA} {
		dir := t.TempDir()
		if _, err := Mine(d, Params{Algo: algo, P: 2, Apriori: apriori.Params{MinSupport: 0.02}, CheckpointDir: dir}); err != nil {
			t.Fatalf("%s rejected CheckpointDir: %v", algo, err)
		}
		if _, err := os.Stat(filepath.Join(dir, checkpointFile)); err != nil {
			t.Errorf("%s wrote no checkpoint: %v", algo, err)
		}
	}
}
