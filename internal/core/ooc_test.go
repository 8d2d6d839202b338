package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"parapriori/internal/apriori"
	"parapriori/internal/cluster"
	"parapriori/internal/countengine"
	"parapriori/internal/datagen"
	"parapriori/internal/itemset"
	"parapriori/internal/obsv"
	"parapriori/internal/txstore"
)

// oocFixture spills a generated dataset into a partitioned store with
// deliberately small blocks, so every pass crosses many block boundaries.
func oocFixture(t *testing.T) (*itemset.Dataset, *txstore.Store) {
	t.Helper()
	gp := datagen.Defaults()
	gp.NumTransactions = 1200
	gp.NumItems = 100
	gp.NumPatterns = 60
	gp.AvgTxnLen = 10
	gp.AvgPatternLen = 4
	gp.Seed = 21
	data, err := datagen.Generate(gp)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	dir := t.TempDir()
	if _, err := txstore.Spill(dir, data, txstore.Options{Partitions: 5, BlockBytes: 2048}); err != nil {
		t.Fatalf("spill: %v", err)
	}
	store, err := txstore.Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return data, store
}

// TestOOCBitIdentical is the out-of-core backend's central property for the
// serial miner: the backend is a *where the transactions live*, never a
// *what is mined*.  Streaming the partition files must produce the
// byte-identical WriteResult output of the in-memory miner, for every
// engine.  The grid formulations' cells are the root option-matrix
// oracle's (TestLegalCellsMatchNaive).
func TestOOCBitIdentical(t *testing.T) {
	data, store := oocFixture(t)
	const minsup = 0.02

	baseRes, err := apriori.Mine(data, apriori.Params{MinSupport: minsup})
	if err != nil {
		t.Fatalf("baseline mine: %v", err)
	}
	baseline := resultBytes(t, baseRes)
	if baseRes.NumFrequent() == 0 {
		t.Fatal("trivial workload, no frequent itemsets")
	}

	for _, eng := range countengine.Names() {
		t.Run("serial/"+eng, func(t *testing.T) {
			res, err := apriori.MineSource(store, apriori.Params{MinSupport: minsup, Engine: eng})
			if err != nil {
				t.Fatalf("mine source: %v", err)
			}
			if !bytes.Equal(resultBytes(t, res), baseline) {
				t.Error("streaming serial result differs from in-memory baseline")
			}
		})
	}
}

// TestOOCMorePartitionsThanRanks exercises uneven and empty partition
// ownership: more ranks than partitions and more partitions than ranks.
func TestOOCMorePartitionsThanRanks(t *testing.T) {
	data, _ := oocFixture(t)
	const minsup = 0.02
	base, err := apriori.Mine(data, apriori.Params{MinSupport: minsup})
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	var want bytes.Buffer
	if err := apriori.WriteResult(&want, base); err != nil {
		t.Fatalf("serialize: %v", err)
	}
	for _, parts := range []int{1, 3, 13} {
		dir := t.TempDir()
		if _, err := txstore.Spill(dir, data, txstore.Options{Partitions: parts, BlockBytes: 1024}); err != nil {
			t.Fatalf("spill: %v", err)
		}
		store, err := txstore.Open(dir)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		for _, procs := range []int{1, 4, 8} {
			rep, err := Mine(store, Params{
				Algo: CD, P: procs,
				Apriori: apriori.Params{MinSupport: minsup},
			})
			if err != nil {
				t.Fatalf("parts=%d p=%d: %v", parts, procs, err)
			}
			var got bytes.Buffer
			if err := apriori.WriteResult(&got, rep.Result); err != nil {
				t.Fatalf("serialize: %v", err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("parts=%d p=%d: result differs from baseline", parts, procs)
			}
		}
	}
}

// TestOOCReadStats checks the out-of-core read-path telemetry: a mine over
// the partition files reports per-pass and run-total read stats, everything
// is charged on the virtual clock so two identical runs report bit-identical
// numbers, and the in-memory backend reports nothing.
func TestOOCReadStats(t *testing.T) {
	data, store := oocFixture(t)
	ap := apriori.Params{MinSupport: 0.02}

	mine := func() *Report {
		t.Helper()
		rep, err := Mine(store, Params{Algo: CD, P: 4, Apriori: ap})
		if err != nil {
			t.Fatalf("ooc mine: %v", err)
		}
		return rep
	}
	rep := mine()

	if rep.Read.Partitions == 0 || rep.Read.Blocks == 0 || rep.Read.Bytes == 0 {
		t.Fatalf("ooc run reported no read work: %+v", rep.Read)
	}
	if rep.Read.Stalls != rep.Read.Blocks {
		t.Errorf("without read-ahead every block read is a stall: stalls=%d blocks=%d", rep.Read.Stalls, rep.Read.Blocks)
	}
	if rep.Read.DecodeSeconds <= 0 {
		t.Errorf("decode time not charged: %v", rep.Read.DecodeSeconds)
	}
	if rep.Read.CRCRetries != 0 {
		t.Errorf("clean store reported %d CRC retries", rep.Read.CRCRetries)
	}
	var sum ReadStats
	for _, pass := range rep.Passes {
		if pass.Read.Blocks == 0 {
			t.Errorf("pass k=%d reported no blocks read", pass.K)
		}
		sum.Add(pass.Read)
	}
	if sum != rep.Read {
		t.Errorf("run total %+v != per-pass sum %+v", rep.Read, sum)
	}
	// Every pass streams the whole store once: per-pass bytes are the sum of
	// the partition files' block bytes (the per-file header is not framing).
	uvl := func(v uint64) int64 {
		n := int64(1)
		for v >= 0x80 {
			v >>= 7
			n++
		}
		return n
	}
	man := store.Manifest()
	var storeBytes int64
	for i, p := range man.Partitions {
		storeBytes += p.Bytes - (5 + uvl(uint64(i)) + uvl(uint64(man.NumItems)))
	}
	if got := rep.Passes[0].Read.Bytes; got != storeBytes {
		t.Errorf("first pass read %d bytes, store holds %d", got, storeBytes)
	}

	rep2 := mine()
	if rep.Read != rep2.Read {
		t.Errorf("read stats differ between identical runs:\n%+v\n%+v", rep.Read, rep2.Read)
	}

	inmem, err := Mine(data, Params{Algo: CD, P: 4, Apriori: ap})
	if err != nil {
		t.Fatalf("inmem mine: %v", err)
	}
	if inmem.Read != (ReadStats{}) {
		t.Errorf("in-memory run reported read stats: %+v", inmem.Read)
	}

	// Under a memory cap CD scans the store once per tree part.  Each
	// part's count span reports that scan alone — the same bytes as every
	// other part on the rank — and the spans of a pass add up to its total.
	capped := cluster.T3E()
	capped.MemoryBytes = 2048
	rec := obsv.NewCollector(obsv.ClockVirtual)
	multi, err := Mine(store, Params{Algo: CD, P: 4, Machine: capped, Apriori: ap, Recorder: rec})
	if err != nil {
		t.Fatalf("capped ooc mine: %v", err)
	}
	type rankPass struct {
		rank int
		k    string
	}
	perPart := map[rankPass]string{}
	perPass := map[string]int64{}
	for _, sp := range rec.Trace().Spans {
		if sp.Cat != obsv.CatSection || sp.Name != "count" {
			continue
		}
		k, _ := sp.Arg("k")
		rb, _ := sp.Arg("read_bytes")
		if first, seen := perPart[rankPass{sp.Rank, k}]; !seen {
			perPart[rankPass{sp.Rank, k}] = rb
		} else if rb != first {
			part, _ := sp.Arg("part")
			t.Errorf("rank %d k=%s part %s: count span read_bytes %s, part 0 read %s", sp.Rank, k, part, rb, first)
		}
		n, err := strconv.ParseInt(rb, 10, 64)
		if err != nil {
			t.Fatalf("count span read_bytes %q: %v", rb, err)
		}
		perPass[k] += n
	}
	multiScan := false
	for _, pass := range multi.Passes[1:] {
		multiScan = multiScan || pass.TreeParts > 1
		if got := perPass[strconv.Itoa(pass.K)]; got != pass.Read.Bytes {
			t.Errorf("pass k=%d: count spans read %d bytes, pass total %d", pass.K, got, pass.Read.Bytes)
		}
	}
	if !multiScan {
		t.Error("memory cap did not force a multi-part pass")
	}
}

// TestOOCValidation pins the source seam's error surface: the source's type
// is the backend, so only a *Dataset or a non-nil *txstore.Store is mined,
// and HPA — resident-only — refuses a store.
func TestOOCValidation(t *testing.T) {
	data, store := oocFixture(t)
	ap := apriori.Params{MinSupport: 0.02}

	if _, err := Mine(nil, Params{Algo: CD, P: 2, Apriori: ap}); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := Mine((*txstore.Store)(nil), Params{Algo: CD, P: 2, Apriori: ap}); err == nil {
		t.Error("typed-nil store accepted")
	}
	path := filepath.Join(t.TempDir(), "data.bin")
	var buf bytes.Buffer
	if err := itemset.WriteBinary(&buf, data); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	file, err := itemset.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Mine(file, Params{Algo: CD, P: 2, Apriori: ap}); err == nil || !strings.Contains(err.Error(), "*itemset.FileSource") {
		t.Errorf("a file source: got %v, want an error naming its type", err)
	}
	if _, err := Mine(store, Params{Algo: DD, P: 2, Apriori: ap}); err != nil {
		t.Errorf("ooc DD rejected: %v", err)
	}
	var fe *apriori.FieldError
	if _, err := Mine(store, Params{Algo: HPA, P: 2, Apriori: ap}); !errors.As(err, &fe) || fe.Field != "Backend" {
		t.Errorf("ooc HPA: got %v, want a Backend field error", err)
	}
	if _, err := Mine(store, Params{Algo: CD, P: 2, Apriori: ap, Faults: &cluster.FaultPlan{}}); err != nil {
		t.Errorf("ooc with fault injection rejected: %v", err)
	}
}

// TestCrashMidScanClosesPartitionReader: a scheduled crash panics out of the
// block scan (the read's or the decode's charge crosses the crash time), and
// the rank's open partition file must be closed on that exit too, not left
// to a finalizer.  With the collector off, crashing runs may not grow the
// process's descriptor table.
func TestCrashMidScanClosesPartitionReader(t *testing.T) {
	openFDs := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("cannot count open descriptors: %v", err)
		}
		return len(ents)
	}
	_, store := oocFixture(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// The fault-free run takes 0.24 virtual seconds, 2.3 ms of them the
	// first pass: one crash inside the first-pass scan, two inside the ring
	// rounds of passes 2 and 3.
	plan := &cluster.FaultPlan{Seed: 5, Crashes: []cluster.Crash{
		{Rank: 1, At: 1e-3}, {Rank: 2, At: 20e-3}, {Rank: 3, At: 90e-3},
	}}
	before := openFDs()
	for i := 0; i < 20; i++ {
		rep, err := Mine(store, Params{
			Algo: IDD, P: 4, Machine: cluster.SP2(), Apriori: apriori.Params{MinSupport: 0.02},
			Faults: plan,
		})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if rep.Restarts == 0 {
			t.Fatal("no crash fired; the plan does not reach into the run")
		}
	}
	if after := openFDs(); after != before {
		t.Errorf("%d descriptors open after 20 crashing ooc runs, %d before", after, before)
	}
}

// TestOOCPassAllocBudget pins what an out-of-core pass may allocate: its
// counting structures, not its reads.  Reader state lives on the Store
// handle, so past the passes that size it a CD x bitset pass allocates the
// same whether the database sits in 4 partition files or 32; a reader that
// starts cold per open (a file buffer, a payload buffer and two arenas, once
// per partition per pass) blows the budget at 32.
func TestOOCPassAllocBudget(t *testing.T) {
	gp := datagen.Defaults()
	gp.NumTransactions = 20000
	gp.NumItems = 100
	gp.NumPatterns = 60
	gp.AvgTxnLen = 10
	gp.AvgPatternLen = 4
	gp.Seed = 21
	data, err := datagen.Generate(gp)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	// allocated returns the bytes one fresh-handle CD x 4 bitset mine of dir
	// allocates when stopped after maxPasses, and the passes it ran.
	allocated := func(dir string, maxPasses int) (uint64, int) {
		t.Helper()
		store, err := txstore.Open(dir)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep, err := Mine(store, Params{
			Algo: CD, P: 4,
			Apriori: apriori.Params{MinSupport: 0.02, Engine: "bitset", MaxPasses: maxPasses},
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("ooc mine: %v", err)
		}
		return after.TotalAlloc - before.TotalAlloc, len(rep.Passes)
	}
	const budget = 2 << 20 // bytes per pass; this workload's columns and candidates take about 0.8 MB
	for _, parts := range []int{4, 32} {
		dir := t.TempDir()
		if _, err := txstore.Spill(dir, data, txstore.Options{Partitions: parts, BlockBytes: 8192}); err != nil {
			t.Fatalf("spill: %v", err)
		}
		two, _ := allocated(dir, 2)
		all, passes := allocated(dir, 0)
		if passes < 4 {
			t.Fatalf("only %d passes, nothing after pass 2 to measure", passes)
		}
		perPass := (all - two) / uint64(passes-2)
		if all < two || perPass > budget {
			t.Errorf("%d partitions: %d bytes allocated per pass after pass 2 (%d over %d passes, %d over 2), budget %d", parts, perPass, all, passes, two, budget)
		}
	}
}
