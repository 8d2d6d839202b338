package parapriori

import (
	"fmt"
	"testing"

	"parapriori/internal/apriori"
)

// Wall-clock micro-benchmarks of the counting structures and their knobs.
// The paper's tables and figures are cmd/experiments' drivers, pinned by
// internal/experiments' TestGoldens.

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
