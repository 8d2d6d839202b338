package core

import (
	"crypto/sha256"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"parapriori/internal/apriori"
	"parapriori/internal/cluster"
	"parapriori/internal/countengine"
	"parapriori/internal/datagen"
	"parapriori/internal/hashtree"
	"parapriori/internal/itemset"
	"parapriori/internal/txstore"
)

// fingerprintCell is one configuration whose whole Report is pinned: the
// parameters and the source they mine (a resident dataset or a store).
type fingerprintCell struct {
	name string
	prm  Params
	src  itemset.Source
}

// fingerprintCells enumerates the pinned configurations.  Over one fixed-seed
// dataset and its spilled store: every algorithm × engine × backend, the
// single-processor edge of each algorithm under a memory cap, a memory-capped
// multi-part CD, a pinned HD grid, two more machines, and one fault plan per
// formulation and backend.  SP2 is the base machine because its disk is
// not free: the order in which I/O and messages are charged shows in the
// clocks.  Then the engine comparison on two datasets of its own: CD × 4 on
// the T3E with the experiments' Fanout 64 / MaxLeaf 16 tree, every engine, on
// a sparse T12.I4 workload and on a dense small-alphabet one where
// transactions hit most candidates.
func fingerprintCells(tb testing.TB, data *itemset.Dataset, store *txstore.Store) []fingerprintCell {
	sp2 := cluster.SP2()
	capped := cluster.SP2()
	capped.MemoryBytes = 2048
	ap := apriori.Params{MinSupport: 0.02}
	backends := []struct {
		name string
		src  itemset.Source
	}{{"inmem", data}, {"ooc", store}}

	var cells []fingerprintCell
	add := func(name string, prm Params) {
		for _, be := range backends {
			cells = append(cells, fingerprintCell{name: name + "/" + be.name, prm: prm, src: be.src})
		}
	}
	for _, algo := range []Algorithm{CD, DD, DDComm, IDD, HD, HPA} {
		for _, eng := range countengine.Names() {
			e := ap
			e.Engine = eng
			add(string(algo)+"/"+eng, Params{Algo: algo, P: 6, Machine: sp2, HDThreshold: 100, Apriori: e})
		}
		add(string(algo)+"/p1-capped", Params{Algo: algo, P: 1, Machine: capped, Apriori: ap})
	}
	add("cd/multipart", Params{Algo: CD, P: 6, Machine: capped, Apriori: ap})
	add("hd/fixedg2", Params{Algo: HD, P: 6, Machine: sp2, FixedG: 2, Apriori: ap})
	add("hd/t3e", Params{Algo: HD, P: 6, Machine: cluster.T3E(), HDThreshold: 100, Apriori: ap})
	for _, algo := range []Algorithm{DD, IDD, HPA} {
		add(string(algo)+"/cow", Params{Algo: algo, P: 6, Machine: cluster.COW(), Apriori: ap})
	}

	// One fault plan for every formulation on both backends (add's HPA × ooc
	// cell is a hole Mine rejects).  The crash times sit inside pass 2 and
	// pass 3 of CD's fault-free in-memory SP2 run; in every cell both land
	// mid-computation.
	for _, algo := range []Algorithm{CD, DD, DDComm, IDD, HD, HPA} {
		plan := &cluster.FaultPlan{
			Seed: 9, Drop: 0.05, Dup: 0.03, Reorder: 0.03,
			Crashes: []cluster.Crash{{Rank: 2, At: 0.05}, {Rank: 4, At: 0.12, Permanent: true}},
		}
		add(string(algo)+"/faults", Params{Algo: algo, P: 6, Machine: sp2, HDThreshold: 100, Apriori: ap, Faults: plan})
	}

	for _, w := range []struct {
		name   string
		gen    datagen.Params
		minsup float64
	}{
		{"t12.sparse", datagen.Params{NumTransactions: 4000, NumItems: 300, NumPatterns: 200, AvgTxnLen: 12, AvgPatternLen: 4,
			Correlation: 0.5, CorruptionMean: 0.5, CorruptionDev: 0.1, Seed: 7}, 0.01},
		{"t10.dense", datagen.Params{NumTransactions: 1500, NumItems: 80, NumPatterns: 60, AvgTxnLen: 10, AvgPatternLen: 4,
			Correlation: 0.5, CorruptionMean: 0.5, CorruptionDev: 0.1, Seed: 8}, 0.03},
	} {
		d, err := datagen.Generate(w.gen)
		if err != nil {
			tb.Fatalf("generate %s: %v", w.name, err)
		}
		for _, eng := range countengine.Names() {
			cells = append(cells, fingerprintCell{
				name: "cd/" + eng + "/" + w.name,
				prm: Params{Algo: CD, P: 4, Machine: cluster.T3E(), Apriori: apriori.Params{
					MinSupport: w.minsup, Engine: eng, Tree: hashtree.Config{Fanout: 64, MaxLeaf: 16}}},
				src: d,
			})
		}
	}
	return cells
}

// hexFloat prints a float64 exactly.
func hexFloat(f float64) string { return strconv.FormatFloat(f, 'x', -1, 64) }

// reportFingerprint renders everything a Report says on the virtual clock,
// exactly: the result bytes' digest, then every float in hex.
func reportFingerprint(tb testing.TB, rep *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%x", sha256.Sum256(resultBytes(tb, rep.Result)))
	fmt.Fprintf(&b, " rt=%s restarts=%d lost=%v clocks=", hexFloat(rep.ResponseTime), rep.Restarts, rep.LostRanks)
	for i, c := range rep.Clocks {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(hexFloat(c))
	}
	tot := rep.Total
	fmt.Fprintf(&b, " total=%s,%s,%s,%s,%s,%d,%d,%d,%d,%d,%d,%d",
		hexFloat(tot.ComputeTime), hexFloat(tot.IOTime), hexFloat(tot.IdleTime), hexFloat(tot.SendTime), hexFloat(tot.RetryTime),
		tot.BytesSent, tot.BytesReceived, tot.MessagesSent, tot.MessagesReceived,
		tot.MessagesRetried, tot.MessagesDropped, tot.DupsSuppressed)
	phases := make([]string, 0, len(tot.Phases))
	for name := range tot.Phases {
		phases = append(phases, name)
	}
	sort.Strings(phases)
	b.WriteString(" phases=")
	for i, name := range phases {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s:%s", strings.ReplaceAll(name, " ", "_"), hexFloat(tot.Phases[name]))
	}
	read := func(r ReadStats) string {
		return fmt.Sprintf("%d,%d,%d,%d,%d,%s", r.Partitions, r.Blocks, r.Bytes, r.CRCRetries, r.Stalls, hexFloat(r.DecodeSeconds))
	}
	fmt.Fprintf(&b, " read=%s", read(rep.Read))
	for _, p := range rep.Passes {
		fmt.Fprintf(&b, " k%d=%d,%d,%dx%d,%d,%d/%d/%d/%d/%d,%d,%s,%s,%s,%s",
			p.K, p.Candidates, p.Frequent, p.GridRows, p.GridCols, p.TreeParts,
			p.Tree.Traversals, p.Tree.LeafVisits, p.Tree.LeafChecks, p.Tree.Transactions, p.Tree.Inserts,
			p.BytesMoved, hexFloat(p.ResponseTime), hexFloat(p.CandImbalance), hexFloat(p.TimeImbalance), read(p.Read))
	}
	return b.String()
}

// TestReportFingerprints pins the virtual clock: every cell's Report must
// reproduce testdata/reports.golden exactly.  The golden was generated at the
// commit before the formulations were folded into one pass skeleton, so it is
// what holds a refactor of the mining core to "same numbers".  Lines are only
// ever appended (a cell that becomes legal gets a line the first time it
// runs); a changed line means the cost model moved, which is a decision to
// make in the open, not a golden to regenerate.
func TestReportFingerprints(t *testing.T) {
	raw, err := os.ReadFile("testdata/reports.golden")
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	golden := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if name, fp, ok := strings.Cut(line, " "); ok {
			golden[name] = fp
		}
	}

	data, store := oocFixture(t)
	for _, cell := range fingerprintCells(t, data, store) {
		want, pinned := golden[cell.name]
		rep, err := Mine(cell.src, cell.prm)
		if err != nil {
			if pinned {
				t.Errorf("%s: %v", cell.name, err)
			}
			// An unpinned cell Mine rejects is a hole in the option matrix,
			// which TestLegalCellsMatchNaive owns.
			continue
		}
		got := reportFingerprint(t, rep)
		switch {
		case !pinned:
			t.Errorf("%s is not in testdata/reports.golden; append:\n%s %s", cell.name, cell.name, got)
		case got != want:
			t.Errorf("%s: report moved\n got %s\nwant %s", cell.name, got, want)
		}
	}
}
