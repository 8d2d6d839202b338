package parapriori

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"parapriori/internal/apriori"
)

// TestLegalCellsMatchNaive is the option matrix's oracle.  It holds no list
// of supported combinations: it enumerates algorithm × engine × backend ×
// {plain, CheckpointDir kill-and-resume, a seeded fault plan} at each of a
// workload's processor counts, asks Validate which cells are legal, and
// requires every legal cell to mine exactly what the naive miner mines (and
// the two backends of a cell to agree byte for byte) and every illegal cell
// to fail with a *OptionError.  A combination that becomes legal is
// therefore tested the moment Validate admits it.  Each cell is a subtest
// named seed/p/algo/engine/backend/mode.  The formulations that move
// transactions (DD, DD+comm, IDD) must report bytes moved.  The fault plan
// drops, duplicates and reorders 5 % of the frames and crashes two ranks —
// one transiently, one for good — at 30 % and 60 % of the cell's own
// fault-free response time, so both land mid-run whatever the cell's clock;
// the run must recover, lose exactly a rank, and repeat bit for bit.  The
// serial miner is the same axis without a formulation: every engine, with
// and without DHP's pair filter, over the resident dataset, streamed from a
// file and streamed from the store.
func TestLegalCellsMatchNaive(t *testing.T) {
	workloads := []struct {
		seed                 int64
		txns, items          int
		procs                []int
		minsup               float64
		partitions, blockLen int
	}{
		{seed: 3, txns: 400, items: 40, procs: []int{4, 6}, minsup: 0.05, partitions: 5, blockLen: 1024},
		{seed: 8, txns: 250, items: 25, procs: []int{3}, minsup: 0.08, partitions: 2, blockLen: 512},
	}
	for _, w := range workloads {
		gen := DefaultGen()
		gen.NumTransactions, gen.NumItems, gen.Seed = w.txns, w.items, w.seed
		gen.NumPatterns, gen.AvgTxnLen, gen.AvgPatternLen = 30, 8, 4
		data, err := Generate(gen)
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		store, err := WritePartitionedDataset(filepath.Join(t.TempDir(), "store"), data,
			PartitionOptions{Partitions: w.partitions, BlockBytes: w.blockLen})
		if err != nil {
			t.Fatalf("spill: %v", err)
		}
		naive, err := apriori.MineNaive(data, apriori.Params{MinSupport: w.minsup})
		if err != nil {
			t.Fatalf("naive: %v", err)
		}
		want := resultBytes(t, naive)
		if len(naive.Levels) < 3 {
			t.Fatalf("seed %d: only %d levels, nothing to resume into", w.seed, len(naive.Levels))
		}

		var bin bytes.Buffer
		if err := WriteDatasetBinary(&bin, data); err != nil {
			t.Fatal(err)
		}
		binPath := filepath.Join(t.TempDir(), "txns.bin")
		if err := os.WriteFile(binPath, bin.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		file, err := OpenDatasetFile(binPath)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		pruned := 0
		for _, engine := range CountEngines() {
			for _, buckets := range []int{0, 512} {
				for _, src := range []struct {
					name string
					data *Dataset
					src  TxSource
				}{{"dataset", data, nil}, {"file", nil, file}, {"store", nil, store}} {
					t.Run(fmt.Sprintf("seed%d/serial/%s/dhp%d/%s", w.seed, engine, buckets, src.name), func(t *testing.T) {
						res, err := Mine(src.data, MineOptions{MinSupport: w.minsup, Engine: engine, DHPBuckets: buckets, Source: src.src})
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(resultBytes(t, res), want) {
							t.Error("result differs from the naive miner")
						}
						if buckets == 0 && res.Passes[1].DHPPruned != 0 {
							t.Error("a plain run reports DHP pruning")
						}
						pruned += res.Passes[1].DHPPruned
					})
				}
			}
		}
		if pruned == 0 {
			t.Errorf("seed %d: DHPBuckets pruned no candidate in any cell: the filter never ran", w.seed)
		}

		legal := 0
		for _, procs := range w.procs {
			for _, algo := range []Algorithm{CD, DD, DDComm, IDD, HD, HPA} {
				for _, engine := range CountEngines() {
					var plainRT [2]float64 // the plain cell's response time, per backend
					for _, mode := range []string{"plain", "resume", "faults"} {
						var perBackend [][]byte
						for bi, backend := range []string{"inmem", "ooc"} {
							o := ParallelOptions{
								MineOptions: MineOptions{MinSupport: w.minsup, Engine: engine},
								Algorithm:   algo, Procs: procs, HDThreshold: 50, Backend: backend,
							}
							resident := data
							if backend == "ooc" {
								o.Source, resident = store, nil
							}
							switch mode {
							case "resume":
								o.CheckpointDir = t.TempDir()
							case "faults":
								o.Faults = &FaultPlan{
									Seed: uint64(w.seed), Drop: 0.05, Dup: 0.05, Reorder: 0.05,
									Crashes: []Crash{
										{Rank: 1, At: 0.3 * plainRT[bi]},
										{Rank: procs - 1, At: 0.6 * plainRT[bi], Permanent: true},
									},
								}
							}
							t.Run(fmt.Sprintf("seed%d/p%d/%s/%s/%s/%s", w.seed, procs, algo, engine, backend, mode), func(t *testing.T) {
								if verr := o.Validate(); verr != nil {
									var oe *OptionError
									if !errors.As(verr, &oe) {
										t.Errorf("Validate returned %T, want *OptionError", verr)
									}
									if _, err := MineParallel(resident, o); !errors.As(err, &oe) {
										t.Errorf("Validate rejects the cell but MineParallel returned %v", err)
									}
									return
								}
								legal++
								if mode == "resume" {
									// The "killed" run stops at a pass boundary, which is
									// all a kill can leave behind (atomic rename).
									killed := o
									killed.MaxPasses = 2
									if _, err := MineParallel(resident, killed); err != nil {
										t.Fatalf("interrupted run: %v", err)
									}
								}
								rep, err := MineParallel(resident, o)
								if err != nil {
									t.Fatal(err)
								}
								switch mode {
								case "plain":
									plainRT[bi] = rep.ResponseTime
								case "resume":
									if rep.ResumedPasses != 2 {
										t.Errorf("resumed %d passes, want 2", rep.ResumedPasses)
									}
								case "faults":
									if rep.Restarts == 0 || len(rep.LostRanks) != 1 {
										t.Errorf("%d restarts, lost ranks %v: the plan's crashes did not both land", rep.Restarts, rep.LostRanks)
									}
									again, err := MineParallel(resident, o)
									if err != nil {
										t.Fatalf("second run: %v", err)
									}
									rep.Wall, again.Wall = 0, 0
									if !reflect.DeepEqual(rep, again) {
										t.Errorf("two runs under one plan report differently:\n%+v\n%+v", rep, again)
									}
								}
								if algo == DD || algo == DDComm || algo == IDD {
									var moved int64
									for _, pass := range rep.Passes {
										moved += pass.BytesMoved
									}
									if moved == 0 {
										t.Errorf("%s on %d processors moved no transaction bytes", algo, procs)
									}
								}
								got := resultBytes(t, rep.Result)
								if !bytes.Equal(got, want) {
									t.Error("result differs from the naive miner")
								}
								perBackend = append(perBackend, got)
							})
						}
						if len(perBackend) == 2 && !bytes.Equal(perBackend[0], perBackend[1]) {
							t.Errorf("seed%d/p%d/%s/%s/%s: inmem and ooc results differ", w.seed, procs, algo, engine, mode)
						}
					}
				}
			}
		}
		if legal == 0 {
			t.Errorf("seed %d: Validate admitted no cell", w.seed)
		}
	}
}
