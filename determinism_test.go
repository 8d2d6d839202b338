package parapriori

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// determinismData generates the seeded workload the determinism and trace
// fingerprint gates share.
func determinismData(t *testing.T) *Dataset {
	t.Helper()
	gen := DefaultGen()
	gen.NumTransactions = 900
	gen.NumItems = 80
	gen.NumPatterns = 40
	gen.AvgTxnLen = 8
	gen.AvgPatternLen = 4
	gen.Seed = 11
	data, err := Generate(gen)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return data
}

// determinismCases are the formulation × engine cells both gates run, on six
// processors at 3 % support.
var determinismCases = []struct {
	algo   Algorithm
	engine string
}{
	{CD, ""}, {DD, ""}, {IDD, ""}, {HD, ""},
	// One non-default counting engine: the seam must not loosen the
	// bit-determinism contract.
	{IDD, "trie"}, {CD, "bitset"},
}

func determinismOptions(algo Algorithm, engine string) ParallelOptions {
	return ParallelOptions{
		MineOptions: MineOptions{MinSupport: 0.03, Engine: engine},
		Algorithm:   algo,
		Procs:       6,
	}
}

// TestMineParallelDeterministic is the determinism regression gate: the
// emulated machine must produce bit-identical results run-to-run for every
// formulation — same frequent itemsets (byte-for-byte through WriteResult),
// same per-pass statistics, and same virtual response times.  Any wall-time
// leakage, map-iteration-order dependence or raw-channel scheduling
// dependence in the simulation shows up here as a diff between two
// back-to-back runs (the failure mode the checkinv suite guards against
// statically).
func TestMineParallelDeterministic(t *testing.T) {
	data := determinismData(t)
	for _, tc := range determinismCases {
		algo, engine := tc.algo, tc.engine
		name := string(algo)
		if engine != "" {
			name += "/" + engine
		}
		t.Run(name, func(t *testing.T) {
			run := func() (*Report, []byte, []byte, []byte, []byte) {
				rec := NewSpanCollector()
				// The always-on flight recorder rides alongside the full
				// collector; its bounded ring must dump byte-identically too.
				fr := NewFlightRecorder(64)
				opt := determinismOptions(algo, engine)
				opt.Recorder = TeeRecorders(fr, rec)
				rep, err := MineParallel(data, opt)
				if err != nil {
					t.Fatalf("%s: %v", algo, err)
				}
				var buf bytes.Buffer
				if err := WriteResult(&buf, rep.Result); err != nil {
					t.Fatalf("%s: serialize: %v", algo, err)
				}
				// The exporters must be byte-deterministic too: the Perfetto
				// trace-event JSON and the attribution table of a seeded run
				// are part of the determinism contract.
				tr := rec.Trace()
				var perfetto bytes.Buffer
				if err := WriteSpanTrace(&perfetto, tr); err != nil {
					t.Fatalf("%s: trace export: %v", algo, err)
				}
				var attrib bytes.Buffer
				if err := WriteAttributionTable(&attrib, TraceAttribution(tr)); err != nil {
					t.Fatalf("%s: attribution: %v", algo, err)
				}
				var ring bytes.Buffer
				if err := WriteSpanTrace(&ring, fr.Trace()); err != nil {
					t.Fatalf("%s: flight-ring export: %v", algo, err)
				}
				return rep, buf.Bytes(), perfetto.Bytes(), attrib.Bytes(), ring.Bytes()
			}
			a, aBytes, aTrace, aAttrib, aRing := run()
			b, bBytes, bTrace, bAttrib, bRing := run()

			if len(aTrace) == 0 || !json.Valid(aTrace) {
				t.Errorf("%s: Perfetto export is not valid JSON", algo)
			}
			if !bytes.Equal(aTrace, bTrace) {
				t.Errorf("%s: Perfetto trace JSON differs between identical runs", algo)
			}
			if !bytes.Equal(aAttrib, bAttrib) {
				t.Errorf("%s: attribution table differs between identical runs:\n  run 1:\n%s\n  run 2:\n%s", algo, aAttrib, bAttrib)
			}
			if len(aRing) == 0 || !json.Valid(aRing) {
				t.Errorf("%s: flight-ring export is not valid JSON", algo)
			}
			if !bytes.Equal(aRing, bRing) {
				t.Errorf("%s: flight-ring Perfetto JSON differs between identical runs", algo)
			}

			if a.Result.NumFrequent() == 0 {
				t.Fatalf("%s: trivial workload, no frequent itemsets", algo)
			}
			if !bytes.Equal(aBytes, bBytes) {
				t.Errorf("%s: frequent itemsets differ between identical runs", algo)
			}
			if !reflect.DeepEqual(a.Passes, b.Passes) {
				t.Errorf("%s: per-pass stats differ between identical runs:\n  run 1: %+v\n  run 2: %+v", algo, a.Passes, b.Passes)
			}
			if a.ResponseTime != b.ResponseTime {
				t.Errorf("%s: virtual response time differs: %v vs %v", algo, a.ResponseTime, b.ResponseTime)
			}
			if !reflect.DeepEqual(a.Clocks, b.Clocks) {
				t.Errorf("%s: per-processor clocks differ:\n  run 1: %v\n  run 2: %v", algo, a.Clocks, b.Clocks)
			}
			if !reflect.DeepEqual(a.Total, b.Total) {
				t.Errorf("%s: aggregate stats differ:\n  run 1: %+v\n  run 2: %+v", algo, a.Total, b.Total)
			}
		})
	}
}

// TestTraceFingerprints pins the span trace itself: for every determinism
// cell, one faulted cell (retry and drop slices, a crash and its recovery)
// and one out-of-core cell on a disk-bound machine (io slices), the SHA-256
// of the full collector's Perfetto JSON and of its attribution table must
// reproduce testdata/traces.golden.  The golden was generated at the commit
// before the emulated machine began emitting spans directly, so it is what
// holds a change of trace plumbing to "same bytes".  Lines are only ever
// appended; a changed line means the trace moved.
func TestTraceFingerprints(t *testing.T) {
	raw, err := os.ReadFile("testdata/traces.golden")
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	golden := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if name, fp, ok := strings.Cut(line, " "); ok {
			golden[name] = fp
		}
	}

	data := determinismData(t)
	type cell struct {
		name string
		data *Dataset
		opt  ParallelOptions
	}
	var cells []cell
	for _, tc := range determinismCases {
		name := string(tc.algo)
		if tc.engine != "" {
			name += "/" + tc.engine
		}
		cells = append(cells, cell{name, data, determinismOptions(tc.algo, tc.engine)})
	}
	faulted := determinismOptions(IDD, "")
	faulted.Faults = &FaultPlan{
		Seed: 3, Drop: 0.1, Dup: 0.1, Reorder: 0.05,
		Crashes: []Crash{{Rank: 1, At: 5e-3}},
	}
	cells = append(cells, cell{"idd/faulted", data, faulted})
	store, err := WritePartitionedDataset(filepath.Join(t.TempDir(), "store"), data,
		PartitionOptions{Partitions: 6, BlockBytes: 2048})
	if err != nil {
		t.Fatalf("write store: %v", err)
	}
	ooc := determinismOptions(CD, "")
	ooc.Source, ooc.Backend, ooc.Machine = store, "ooc", presetMachine(t, "sp2")
	cells = append(cells, cell{"cd/ooc/sp2", nil, ooc})

	for _, c := range cells {
		rec := NewSpanCollector()
		c.opt.Recorder = rec
		rep, err := MineParallel(c.data, c.opt)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		tr := rec.Trace()
		cats := map[string]bool{}
		for _, s := range tr.Spans {
			cats[s.Cat] = true
		}
		switch c.name {
		case "idd/faulted":
			if !cats["retry"] || !cats["drop"] || rep.Restarts == 0 {
				t.Errorf("%s: no retry/drop slices or no recovery; the cell pins nothing", c.name)
			}
		case "cd/ooc/sp2":
			if !cats["io"] {
				t.Errorf("%s: no io slices; the cell pins nothing", c.name)
			}
		}
		var perfetto, attrib bytes.Buffer
		if err := WriteSpanTrace(&perfetto, tr); err != nil {
			t.Fatalf("%s: trace export: %v", c.name, err)
		}
		if err := WriteAttributionTable(&attrib, TraceAttribution(tr)); err != nil {
			t.Fatalf("%s: attribution: %v", c.name, err)
		}
		got := fmt.Sprintf("spans=%d perfetto=%x attrib=%x",
			len(tr.Spans), sha256.Sum256(perfetto.Bytes()), sha256.Sum256(attrib.Bytes()))
		switch want, pinned := golden[c.name]; {
		case !pinned:
			t.Errorf("%s is not in testdata/traces.golden; append:\n%s %s", c.name, c.name, got)
		case got != want:
			t.Errorf("%s: trace moved\n got %s\nwant %s", c.name, got, want)
		}
	}
}

// TestFlightRingKeepsRecentStructure pins the flight ring's window
// semantics on a mining run: each rank's ring holds the spans that rank
// completed last, in the order it completed them, so an overflowing ring
// still carries the pass and section spans of the run's tail and its dump
// attributes time to passes instead of one "other" row.
func TestFlightRingKeepsRecentStructure(t *testing.T) {
	const ring, procs = 32, 6
	fr := NewFlightRecorder(ring)
	rec := NewSpanCollector()
	opt := determinismOptions(IDD, "")
	opt.Recorder = TeeRecorders(fr, rec)
	if _, err := MineParallel(determinismData(t), opt); err != nil {
		t.Fatal(err)
	}
	full := rec.Trace()
	perRank := make(map[int]int)
	for _, s := range full.Spans {
		perRank[s.Rank]++
	}
	for r := 0; r < procs; r++ {
		if perRank[r] <= ring {
			t.Fatalf("rank %d recorded %d spans; the ring of %d never overflows and the test is vacuous", r, perRank[r], ring)
		}
	}
	if got, want := int64(fr.Len())+fr.Dropped(), int64(len(full.Spans)); got != want {
		t.Errorf("ring holds %d + dropped %d = %d spans, collector saw %d", fr.Len(), fr.Dropped(), got, want)
	}

	dump := fr.Trace()
	passes := make(map[int]int)
	for _, s := range dump.Spans {
		if s.Cat == "pass" {
			passes[s.Rank]++
		}
	}
	for r := 0; r < procs; r++ {
		if passes[r] == 0 {
			t.Errorf("rank %d: ring dump holds no pass span", r)
		}
	}
	attributed := false
	for _, c := range TraceAttribution(dump) {
		if c.Pass >= 1 && c.Compute+c.IO+c.Send+c.Idle+c.Retry > 0 {
			attributed = true
		}
	}
	if !attributed {
		t.Error("ring dump attributes nothing to any pass k >= 1")
	}
}
