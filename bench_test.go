package parapriori

import (
	"fmt"
	"testing"

	"parapriori/internal/apriori"
	"parapriori/internal/experiments"
)

// ----------------------------------------------------------------------
// One benchmark per table/figure of the paper's evaluation.  Each bench
// regenerates its table or figure through the same harness cmd/experiments
// uses, at a reduced (Quick) workload so `go test -bench` stays tractable;
// run `cmd/experiments -run all` for the full-size series recorded in
// EXPERIMENTS.md.
// ----------------------------------------------------------------------

func benchExperiment(b *testing.B, name string) {
	n, ok := experiments.Lookup(name)
	if !ok {
		b.Fatalf("experiment %q not registered", name)
	}
	cfg := experiments.Config{Scale: 0.15, Quick: true, Seed: 7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := n.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Series) == 0 && len(res.TableRows) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkTable2HDConfig regenerates Table II: HD's per-pass grid choice.
func BenchmarkTable2HDConfig(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkFig10Scaleup regenerates Figure 10: CD/DD/DD+comm/IDD/HD
// response times with fixed transactions per processor.
func BenchmarkFig10Scaleup(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkFig11LeafVisits regenerates Figure 11: distinct leaf visits per
// transaction, DD vs IDD.
func BenchmarkFig11LeafVisits(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkFig12CandidateSweep regenerates Figure 12: the SP2 sweep where
// memory-capped CD pays multi-scan I/O.
func BenchmarkFig12CandidateSweep(b *testing.B) { benchExperiment(b, "fig12") }

// BenchmarkFig13Speedup regenerates Figure 13: fixed-problem speedups.
func BenchmarkFig13Speedup(b *testing.B) { benchExperiment(b, "fig13") }

// BenchmarkFig14TransactionSweep regenerates Figure 14: runtime vs N.
func BenchmarkFig14TransactionSweep(b *testing.B) { benchExperiment(b, "fig14") }

// BenchmarkFig15CandidateScaling regenerates Figure 15: runtime vs M.
func BenchmarkFig15CandidateScaling(b *testing.B) { benchExperiment(b, "fig15") }

// BenchmarkAnalysisVij exercises the Section IV cost model comparison.
func BenchmarkAnalysisVij(b *testing.B) { benchExperiment(b, "model") }

// BenchmarkAblations exercises the design-decision ablations: HD's G sweep,
// the free-communication baseline, and the overlap on/off comparison.
func BenchmarkAblations(b *testing.B) { benchExperiment(b, "ablate") }

// BenchmarkHPAStudy measures the Section III-E HPA-vs-IDD communication
// comparison.
func BenchmarkHPAStudy(b *testing.B) { benchExperiment(b, "hpa") }

// ----------------------------------------------------------------------
// Micro-benchmarks for the core operations the figures are built from.
// ----------------------------------------------------------------------

// benchData generates the sparse T12.I4 workload of the pinned engine cells
// (cd/<engine>/t12.sparse in internal/core/testdata/reports.golden), so the
// micro-benchmarks' wall-clock numbers and the pinned virtual-clock ones
// describe the same data.
func benchData(b *testing.B, n int) *Dataset {
	b.Helper()
	data, err := Generate(GenOptions{
		NumTransactions: n, NumItems: 300, NumPatterns: 200, AvgTxnLen: 12, AvgPatternLen: 4,
		Correlation: 0.5, CorruptionMean: 0.5, CorruptionDev: 0.1, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	return data
}

// BenchmarkSerialMine measures the serial Apriori pipeline end to end.
func BenchmarkSerialMine(b *testing.B) {
	data := benchData(b, 4000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Mine(data, MineOptions{MinSupport: 0.01}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallel measures each formulation on an 8-processor emulated
// machine with the same workload, so their real (wall-clock) costs are
// directly comparable.
func BenchmarkParallel(b *testing.B) {
	data := benchData(b, 4000)
	for _, algo := range []Algorithm{CD, DD, DDComm, IDD, HD} {
		b.Run(string(algo), func(b *testing.B) {
			var virtual float64
			for i := 0; i < b.N; i++ {
				rep, err := MineParallel(data, ParallelOptions{
					MineOptions: MineOptions{MinSupport: 0.01},
					Algorithm:   algo,
					Procs:       8,
				})
				if err != nil {
					b.Fatal(err)
				}
				virtual = rep.ResponseTime
			}
			b.ReportMetric(virtual*1e3, "virtual-ms")
		})
	}
}

// BenchmarkRuleGeneration measures ap-genrules over a mined result.
func BenchmarkRuleGeneration(b *testing.B) {
	data := benchData(b, 4000)
	res, err := Mine(data, MineOptions{MinSupport: 0.01})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateRules(res, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDatagen measures the synthetic workload generator itself.
func BenchmarkDatagen(b *testing.B) {
	gen := DefaultGen()
	gen.NumTransactions = 10000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Seed = int64(i + 1)
		if _, err := Generate(gen); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLeafSizeAblation sweeps the hash tree's MaxLeaf (the S knob of
// the Section IV analysis): larger leaves mean fewer, fuller leaf checks —
// the trade-off DESIGN.md calls out as ablation target 5.
func BenchmarkLeafSizeAblation(b *testing.B) {
	data := benchData(b, 4000)
	for _, leaf := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("S=%d", leaf), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Mine(data, MineOptions{MinSupport: 0.01, MaxLeafSize: leaf}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngines compares the pluggable counting engines on the serial
// miner, with allocation counts — the real-time counterpart of the virtual
// numbers pinned in reports.golden's cd/<engine>/t12.sparse cells.
func BenchmarkEngines(b *testing.B) {
	data := benchData(b, 4000)
	for _, eng := range CountEngines() {
		b.Run(eng, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Mine(data, MineOptions{MinSupport: 0.01, Engine: eng}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCountingMethod compares the candidate hash tree against Section
// II's "one naive way" — matching every transaction against every candidate
// directly.  The gap is the data structure's entire reason to exist.
func BenchmarkCountingMethod(b *testing.B) {
	data := benchData(b, 1500)
	b.Run("hashtree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Mine(data, MineOptions{MinSupport: 0.01}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := apriori.MineNaive(data, apriori.Params{MinSupport: 0.01}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDHP measures the DHP pair-hash filter's effect on end-to-end
// serial mining (it shrinks C2 before the pass-2 tree is built).
func BenchmarkDHP(b *testing.B) {
	data := benchData(b, 4000)
	for _, buckets := range []int{0, 1 << 16} {
		name := "off"
		if buckets > 0 {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Mine(data, MineOptions{MinSupport: 0.01, DHPBuckets: buckets}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelRuleGeneration measures the emulated parallel rule step.
func BenchmarkParallelRuleGeneration(b *testing.B) {
	data := benchData(b, 4000)
	res, err := Mine(data, MineOptions{MinSupport: 0.01})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateRulesOn(res, RuleGenOptions{Procs: 8, MinConfidence: 0.5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFanoutAblation sweeps the hash-table width of internal nodes;
// small fanouts saturate the tree (L << C) and inflate leaf checks.
func BenchmarkFanoutAblation(b *testing.B) {
	data := benchData(b, 4000)
	for _, fanout := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("H=%d", fanout), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Mine(data, MineOptions{MinSupport: 0.01, HashTreeFanout: fanout}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
