// Command parminer mines a transaction file with one of the parallel
// Apriori formulations on the emulated message-passing machine, reporting
// both the mined itemsets and the parallel behaviour (virtual response
// time, per-pass grid configuration, load imbalance, communication volume).
//
// Usage:
//
//	parminer -algo hd -p 64 -minsup 0.001 t15i6.dat
//	parminer -algo hpa -p 8 -minsup 0.01 t15i6.dat
//	parminer -algo idd -p 16 -machine sp2 -minsup 0.005 -passes t15i6.dat
//	parminer -algo idd -p 8 -minsup 0.01 -trace trace.json t15i6.dat
//	parminer -algo cd -p 16 -minsup 0.01 -backend ooc -store big/
//
// With -store the transactions come from a partitioned on-disk dataset
// (written by datagen -store or parapriori.WritePartitionedDataset) instead
// of a flat file; -backend ooc mines it out of core, each emulated
// processor streaming its own partition files one block at a time.
//
// -trace writes the run's span trace as Perfetto-loadable JSON (inspect it
// with cmd/trace or load it at ui.perfetto.dev); -timeline renders the same
// spans as a text Gantt chart, the one `trace -timeline` prints of the
// file.  A bounded flight recorder runs on every mine regardless of flags;
// -flight dumps its ring — each rank's most recently completed spans,
// structure included — in the same format.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"parapriori"
)

// machineNames lists the -machine spellings from the preset registry, so
// the flag stays in sync as models are added.
func machineNames() string {
	var names []string
	for _, p := range parapriori.Machines() {
		names = append(names, p.Name)
	}
	return strings.Join(names, ", ")
}

// writeTrace saves an assembled span trace as Perfetto-loadable trace-event
// JSON.
func writeTrace(path string, t *parapriori.SpanTrace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := parapriori.WriteSpanTrace(f, t); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// emitJSON prints a machine-readable run summary.
func emitJSON(rep *parapriori.Report) {
	type readJSON struct {
		Partitions    int     `json:"partitions"`
		Blocks        int64   `json:"blocks"`
		Bytes         int64   `json:"bytes"`
		CRCRetries    int64   `json:"crcRetries"`
		Stalls        int64   `json:"stalls"`
		DecodeSeconds float64 `json:"decodeSeconds"`
	}
	type passJSON struct {
		K          int     `json:"k"`
		Grid       string  `json:"grid"`
		Candidates int     `json:"candidates"`
		Frequent   int     `json:"frequent"`
		TreeParts  int     `json:"treeParts"`
		CandImb    float64 `json:"candImbalance"`
		TimeImb    float64 `json:"timeImbalance"`
		BytesMoved int64   `json:"bytesMoved"`
		Response   float64 `json:"responseSeconds"`
		// Read carries the out-of-core read-path stats; omitted in-memory.
		Read *readJSON `json:"read,omitempty"`
	}
	readOf := func(r parapriori.ReadStats) *readJSON {
		if r.Blocks == 0 {
			return nil
		}
		return &readJSON{
			Partitions: r.Partitions, Blocks: r.Blocks, Bytes: r.Bytes,
			CRCRetries: r.CRCRetries, Stalls: r.Stalls, DecodeSeconds: r.DecodeSeconds,
		}
	}
	out := struct {
		Algorithm    string             `json:"algorithm"`
		Procs        int                `json:"procs"`
		Machine      string             `json:"machine"`
		Frequent     int                `json:"frequentItemsets"`
		ResponseSecs float64            `json:"responseSeconds"`
		Phases       map[string]float64 `json:"phaseShares"`
		Read         *readJSON          `json:"read,omitempty"`
		Passes       []passJSON         `json:"passes"`
	}{
		Algorithm:    string(rep.Algo),
		Procs:        rep.P,
		Machine:      rep.Params.Machine.Name,
		Frequent:     rep.Result.NumFrequent(),
		ResponseSecs: rep.ResponseTime,
		Phases:       rep.PhaseBreakdown(),
		Read:         readOf(rep.Read),
	}
	for _, p := range rep.Passes {
		out.Passes = append(out.Passes, passJSON{
			K: p.K, Grid: fmt.Sprintf("%dx%d", p.GridRows, p.GridCols),
			Candidates: p.Candidates, Frequent: p.Frequent, TreeParts: p.TreeParts,
			CandImb: p.CandImbalance, TimeImb: p.TimeImbalance,
			BytesMoved: p.BytesMoved, Response: p.ResponseTime,
			Read: readOf(p.Read),
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintf(os.Stderr, "parminer: %v\n", err)
		os.Exit(1)
	}
}

func main() {
	var (
		algoName = flag.String("algo", "hd", "algorithm: cd, dd, ddcomm, idd, hd or hpa")
		procs    = flag.Int("p", 8, "number of emulated processors")
		minsup   = flag.Float64("minsup", 0.01, "minimum support (fraction)")
		machine  = flag.String("machine", "t3e", "machine model: "+machineNames())
		hdm      = flag.Int("m", 5000, "HD candidate threshold per grid row")
		fixedG   = flag.Int("g", 0, "pin HD's grid rows (0 = dynamic)")
		passes   = flag.Bool("passes", false, "print per-pass detail")
		timeline = flag.Bool("timeline", false, "render a per-processor virtual-time Gantt chart")
		traceOut = flag.String("trace", "", "write the run's span trace as Perfetto-loadable JSON to this file")
		flight   = flag.String("flight", "", "write the flight recorder's ring of recent spans as Perfetto-loadable JSON to this file")
		asJSON   = flag.Bool("json", false, "emit a JSON summary instead of text")
		itemsets = flag.Bool("itemsets", false, "print the frequent itemsets")
		engine   = flag.String("engine", "", "counting engine: "+strings.Join(parapriori.CountEngines(), ", ")+" (default hashtree; every -algo but hpa)")
		storeDir = flag.String("store", "", "mine a partitioned dataset directory (datagen -store) instead of a transaction file")
		backend  = flag.String("backend", "", "execution backend: inmem (default) or ooc (out of core; requires -store; every -algo but hpa)")
	)
	flag.Parse()

	var (
		data  *parapriori.Dataset
		src   parapriori.TxSource
		nTxns int
	)
	switch {
	case *storeDir != "":
		if flag.NArg() != 0 {
			fmt.Fprintln(os.Stderr, "parminer: -store and a transaction file are mutually exclusive")
			os.Exit(2)
		}
		store, err := parapriori.OpenPartitionedDataset(*storeDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "parminer: %v\n", err)
			os.Exit(1)
		}
		src = store
		nTxns = store.Info().NumTxns
	case flag.NArg() == 1:
		if *backend == "ooc" {
			fmt.Fprintln(os.Stderr, "parminer: -backend ooc requires -store")
			os.Exit(2)
		}
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "parminer: %v\n", err)
			os.Exit(1)
		}
		d, err := parapriori.ReadDataset(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "parminer: %v\n", err)
			os.Exit(1)
		}
		data = d
		nTxns = d.Len()
	default:
		fmt.Fprintln(os.Stderr, "usage: parminer [flags] <transactions.dat>\n       parminer [flags] -store <dir>")
		flag.PrintDefaults()
		os.Exit(2)
	}

	preset, ok := parapriori.MachineByName(*machine)
	if !ok {
		fmt.Fprintf(os.Stderr, "parminer: unknown machine %q (want %s)\n", *machine, machineNames())
		os.Exit(2)
	}
	mach := preset.Machine()

	// The flight recorder is always on: a bounded ring of recent spans per
	// rank, teed alongside the full collector -trace and -timeline read.
	// -flight dumps it in the same Perfetto format as -trace.
	fr := parapriori.NewFlightRecorder(0)
	var col *parapriori.SpanCollector
	rec := parapriori.Recorder(fr)
	if *traceOut != "" || *timeline {
		col = parapriori.NewSpanCollector()
		rec = parapriori.TeeRecorders(fr, col)
	}
	popt := parapriori.ParallelOptions{
		MineOptions: parapriori.MineOptions{MinSupport: *minsup, Engine: *engine, Source: src},
		Algorithm:   parapriori.Algorithm(*algoName),
		Procs:       *procs,
		Machine:     mach,
		HDThreshold: *hdm,
		FixedG:      *fixedG,
		Backend:     *backend,
		Recorder:    rec,
	}
	rep, err := parapriori.MineParallel(data, popt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "parminer: %v\n", err)
		os.Exit(1)
	}

	if *traceOut != "" {
		if err := writeTrace(*traceOut, col.Trace()); err != nil {
			fmt.Fprintf(os.Stderr, "parminer: %v\n", err)
			os.Exit(1)
		}
	}
	if *flight != "" {
		if err := writeTrace(*flight, fr.Trace()); err != nil {
			fmt.Fprintf(os.Stderr, "parminer: %v\n", err)
			os.Exit(1)
		}
	}

	if *asJSON {
		emitJSON(rep)
		return
	}

	fmt.Printf("algorithm %s on %d procs (%s): %d transactions, minsup %.4g\n",
		rep.Algo, rep.P, mach.Name, nTxns, *minsup)
	fmt.Printf("frequent itemsets: %d\n", rep.Result.NumFrequent())
	fmt.Printf("virtual response time: %.6f s (emulated %v wall)\n", rep.ResponseTime, rep.Wall.Round(1e6))
	fmt.Printf("compute %.6f s, idle %.6f s, i/o %.6f s, sent %d MB in %d messages\n",
		rep.Total.ComputeTime, rep.Total.IdleTime, rep.Total.IOTime,
		rep.Total.BytesSent>>20, rep.Total.MessagesSent)
	if rep.Read.Blocks > 0 {
		fmt.Printf("ooc read: %d partition opens, %d blocks (%d bytes), %d crc retries, %d stalls, decode %.6f s\n",
			rep.Read.Partitions, rep.Read.Blocks, rep.Read.Bytes,
			rep.Read.CRCRetries, rep.Read.Stalls, rep.Read.DecodeSeconds)
	}

	if *passes {
		ooc := rep.Read.Blocks > 0
		fmt.Printf("%-5s %-8s %-11s %-10s %-7s %-12s %-12s %-12s",
			"pass", "grid", "candidates", "frequent", "parts", "cand-imb", "time-imb", "moved-bytes")
		if ooc {
			fmt.Printf(" %-12s %-10s", "read-bytes", "decode-s")
		}
		fmt.Println()
		for _, p := range rep.Passes {
			fmt.Printf("%-5d %-8s %-11d %-10d %-7d %-12.4f %-12.4f %-12d",
				p.K, fmt.Sprintf("%dx%d", p.GridRows, p.GridCols),
				p.Candidates, p.Frequent, p.TreeParts,
				p.CandImbalance, p.TimeImbalance, p.BytesMoved)
			if ooc {
				fmt.Printf(" %-12d %-10.6f", p.Read.Bytes, p.Read.DecodeSeconds)
			}
			fmt.Println()
		}
	}
	if *timeline {
		if err := parapriori.TraceTimeline(os.Stdout, col.Trace(), 100); err != nil {
			fmt.Fprintf(os.Stderr, "parminer: %v\n", err)
			os.Exit(1)
		}
	}
	if *itemsets {
		for _, level := range rep.Result.Levels {
			for _, fs := range level {
				fmt.Printf("%v %d\n", fs.Items, fs.Count)
			}
		}
	}
}
