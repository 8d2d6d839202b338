// Package parapriori is a library for association-rule mining with serial
// and parallel Apriori, reproducing "Scalable Parallel Data Mining for
// Association Rules" (Han, Karypis, Kumar; SIGMOD 1997 / IEEE TKDE 1999).
//
// The library mines frequent itemsets and association rules from
// transaction databases with the serial Apriori algorithm or any of four
// parallel formulations — Count Distribution (CD), Data Distribution (DD),
// Intelligent Data Distribution (IDD) and Hybrid Distribution (HD) —
// executed on an emulated message-passing machine (one goroutine per
// processor) with a virtual-time cost model of the paper's Cray T3E and IBM
// SP2 platforms.
//
// # Quick start
//
//	data, _ := parapriori.Generate(parapriori.DefaultGen()) // synthetic T15.I6
//	res, _ := parapriori.Mine(data, parapriori.MineOptions{MinSupport: 0.01})
//	rules, _ := parapriori.GenerateRules(res, 0.8)
//
// For parallel mining:
//
//	rep, _ := parapriori.MineParallel(data, parapriori.ParallelOptions{
//		Algorithm: parapriori.HD,
//		Procs:     64,
//		MineOptions: parapriori.MineOptions{MinSupport: 0.001},
//	})
//	fmt.Println(rep.ResponseTime, rep.Result.NumFrequent())
//
// Transactions can also come from a streaming TxSource — a file
// (OpenDatasetFile) or a spill-to-disk PartitionedDataset
// (WritePartitionedDataset) — via MineOptions.Source; with
// ParallelOptions.Backend "ooc" the partitioned store is mined out of
// core, block by block, for databases larger than memory.
package parapriori

import (
	"io"

	"parapriori/internal/apriori"
	"parapriori/internal/cluster"
	"parapriori/internal/core"
	"parapriori/internal/countengine"
	"parapriori/internal/datagen"
	"parapriori/internal/hashtree"
	"parapriori/internal/itemset"
	"parapriori/internal/obsv"
	"parapriori/internal/rules"
	"parapriori/internal/serve"
)

// Core vocabulary, aliased from the internal packages so callers never need
// to import them.
type (
	// Item identifies a single item.
	Item = itemset.Item
	// Itemset is a sorted, duplicate-free set of items.
	Itemset = itemset.Itemset
	// Transaction is one database record.
	Transaction = itemset.Transaction
	// Dataset is an in-memory transaction database.
	Dataset = itemset.Dataset
	// Frequent is a frequent itemset with its support count.
	Frequent = apriori.Frequent
	// Result holds the frequent itemsets of a mining run, by size.
	Result = apriori.Result
	// Rule is an association rule X => Y with support and confidence.
	Rule = rules.Rule
	// Report is the outcome of a parallel mining run: the Result plus
	// virtual response time, per-pass statistics and processor accounting.
	Report = core.Report
	// PassReport describes one level-wise pass of a parallel run.
	PassReport = core.PassReport
	// ReadStats aggregates an out-of-core run's read-path telemetry:
	// partitions, blocks and bytes read, checksum failures survived,
	// read-ahead stalls and decode time, per pass and run-total.
	ReadStats = core.ReadStats
	// Machine is the cost model of the emulated parallel computer.
	Machine = cluster.Machine
	// Algorithm selects a parallel formulation.
	Algorithm = core.Algorithm
	// GenOptions parametrizes the Quest-style synthetic data generator.
	GenOptions = datagen.Params
	// Vocabulary maps between item IDs and human-readable names.
	Vocabulary = itemset.Vocabulary
	// FaultPlan is a deterministic fault-injection schedule for a parallel
	// run: message drop/duplicate/delay/reorder rates, processor crashes
	// and stragglers, all decided by a seeded hash of virtual time and
	// message identity — never by wall time or a shared RNG.
	FaultPlan = cluster.FaultPlan
	// Crash schedules one processor failure at a virtual time; Permanent
	// crashes remove the rank for good (the run degrades to the
	// survivors), transient ones are rolled back and re-run.
	Crash = cluster.Crash
	// Straggler slows a processor's compute by a factor from a virtual
	// time onward.
	Straggler = cluster.Straggler
	// ReliableConfig tunes the retry/ack layer that masks message faults:
	// bounded retries with exponential virtual-time backoff.
	ReliableConfig = cluster.ReliableConfig
)

// The parallel formulations of the paper.
const (
	// CD is Count Distribution: full candidate replication, one global
	// count reduction per pass.
	CD = core.CD
	// DD is Data Distribution: round-robin candidate partitioning with
	// all-to-all transaction exchange.
	DD = core.DD
	// DDComm is DD with IDD's ring communication (the paper's "DD+comm"
	// ablation).
	DDComm = core.DDComm
	// IDD is Intelligent Data Distribution: bin-packed first-item candidate
	// partitioning, bitmap root filtering, ring transaction pipeline.
	IDD = core.IDD
	// HD is Hybrid Distribution: a G×(P/G) processor grid combining CD and
	// IDD, with G chosen per pass.
	HD = core.HD
	// HPA is Hash Partitioned Apriori (Shintani & Kitsuregawa), the
	// related-work algorithm the paper analyzes: candidates are placed by
	// hashing whole itemsets and every transaction's potential candidates
	// are shipped to their owners.
	HPA = core.HPA
)

// MineOptions configures frequent-itemset mining.
type MineOptions struct {
	// MinSupport is the minimum support threshold as a fraction of the
	// transaction count, e.g. 0.001 for the paper's 0.1%.
	MinSupport float64
	// HashTreeFanout is the hash-table width of internal tree nodes
	// (default 32; 1 is refused, since such a tree cannot split a leaf).
	HashTreeFanout int
	// MaxLeafSize is the number of candidates a leaf holds before
	// splitting (default 16); it sets S in the paper's analysis.
	MaxLeafSize int
	// MaxPasses, if positive, stops after frequent itemsets of that size.
	MaxPasses int
	// DHPBuckets, if positive, enables the DHP (Park/Chen/Yu) pair-hash
	// filter: the first pass also hashes transaction pairs into this many
	// buckets and prunes size-2 candidates from cold buckets.  Results are
	// identical to plain Apriori; pass 2 just counts fewer candidates.
	// Serial mining only — over any Source and with any Engine, since the
	// buckets ride the one first pass and only remove candidates.
	DHPBuckets int
	// Engine selects the support-counting backend: "hashtree" (the paper's
	// candidate hash tree, the default), "trie" (flat prefix-compressed
	// trie over dense items) or "bitset" (vertical per-item TID bitmaps,
	// support by intersection).  Every backend mines identical itemsets;
	// they differ in the operations counting spends, and therefore in
	// virtual time.  CountEngines lists the registered names.  Every
	// parallel formulation counts through the selected engine except HPA,
	// which has no counting structure to replace.
	Engine string
	// Source, when non-nil, supplies the transactions instead of the
	// positional dataset argument — a *Dataset, a FileSource, or a
	// PartitionedDataset.  Setting both Source and the dataset argument is
	// an error; so is setting neither.  Streaming (non-Dataset) sources
	// mine identical itemsets, scanned once per pass.
	Source TxSource
}

func (o MineOptions) params() apriori.Params {
	return apriori.Params{
		MinSupport: o.MinSupport,
		Tree:       hashtree.Config{Fanout: o.HashTreeFanout, MaxLeaf: o.MaxLeafSize},
		MaxPasses:  o.MaxPasses,
		DHPBuckets: o.DHPBuckets,
		Engine:     o.Engine,
	}
}

// CountEngines returns the registered support-counting backend names, in
// sorted order — the values MineOptions.Engine accepts.
func CountEngines() []string { return countengine.Names() }

// Mine runs the serial Apriori algorithm over a dataset or, when
// MineOptions.Source is set, over any streaming transaction source.
// Options are validated first; misconfigurations — including supplying the
// transactions both ways, or neither way — return a *OptionError naming
// the field.
func Mine(data *Dataset, o MineOptions) (*Result, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	src, err := resolveSource("MineOptions", data, o.Source)
	if err != nil {
		return nil, err
	}
	return apriori.MineSource(src, o.params())
}

// ParallelOptions configures a parallel mining run.
type ParallelOptions struct {
	MineOptions
	// Algorithm is the parallel formulation (CD, DD, DDComm, IDD, HD or HPA).
	Algorithm Algorithm
	// Procs is the number of emulated processors.
	Procs int
	// Machine is the cost model; the zero value selects the "t3e" preset.
	Machine Machine
	// HDThreshold is HD's minimum candidates per grid row (the paper's m;
	// default 5000).
	HDThreshold int
	// FixedG pins HD's grid rows instead of choosing them per pass.
	FixedG int
	// Faults, when non-nil, injects the plan's message and processor
	// faults into the run and turns on fault-tolerant execution:
	// pass-level checkpoints, crash recovery by coordinated rollback, and
	// graceful degradation to the surviving processors when a rank is
	// lost.  The mined itemsets stay identical to Mine's; Report.Restarts
	// and Report.LostRanks record what the recovery did, and the
	// retry/checkpoint costs appear on the virtual clock.  Every
	// formulation on both backends runs under a plan: the emulated machine
	// makes every message reliable, a lost rank's resident shards go to its
	// ring successor, and on the "ooc" backend the store's partitions are
	// re-split over the survivors.  Runs with the same plan, seed and
	// workload are bit-identical.
	Faults *FaultPlan
	// CheckpointDir, when non-empty, persists each completed pass's
	// frequent itemsets to <dir>/checkpoint.freq and resumes from that file
	// on the next run over the same workload — a killed mining run restarts
	// at its first unmined pass instead of from scratch.  Resumed passes
	// are marked PassReport.Restored and counted in Report.ResumedPasses.
	// Every formulation and both backends checkpoint.
	CheckpointDir string
	// Recorder, when non-nil, receives the run's hierarchical spans (run →
	// pass → section → message/compute slice) on the virtual clock, each
	// as it completes; use NewSpanCollector and the span exporters
	// (WriteSpanTrace, TraceAttribution, TraceTimeline) to consume them.
	// Traces of seeded runs are bit-identical run to run.
	Recorder Recorder
	// Backend selects where the transactions live during the run:
	// "inmem" (the default — the dataset is resident and split into
	// per-rank shards) or "ooc" (out of core — each rank streams its own
	// partition files of a PartitionedDataset one block at a time, so the
	// resident set is the counting structure plus one block).  The "ooc"
	// backend requires Source to be a PartitionedDataset; mined itemsets
	// are identical to the in-memory backend's.  Every formulation streams
	// except HPA, whose exchange kernel enumerates its resident shards, and
	// the backend combines with every other option, Faults included.
	Backend string
}

// MineParallel runs a parallel formulation on an emulated cluster.  The
// mined itemsets are always identical to Mine's; the Report adds virtual
// response time and per-pass behaviour of the chosen formulation.
//
// Options are validated first; misconfigurations — including the serial-only
// DHPBuckets, which earlier versions ignored silently — return a *OptionError
// naming the field.
func MineParallel(data *Dataset, o ParallelOptions) (*Report, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	src, err := resolveSource("ParallelOptions", data, o.Source)
	if err != nil {
		return nil, err
	}
	if o.Backend != "ooc" {
		// Validate() has pinned an ooc Source to a partitioned store, which
		// core streams; every other source is mined resident.
		if src, err = MaterializeSource(src); err != nil {
			return nil, err
		}
	}
	return core.Mine(src, o.coreParams())
}

// coreParams maps the options onto the mining core's parameters (all but
// the transactions, which MineParallel resolves from Source).
func (o ParallelOptions) coreParams() core.Params {
	return core.Params{
		Algo:          o.Algorithm,
		P:             o.Procs,
		Machine:       o.Machine,
		Apriori:       o.MineOptions.params(),
		HDThreshold:   o.HDThreshold,
		FixedG:        o.FixedG,
		Faults:        o.Faults,
		CheckpointDir: o.CheckpointDir,
		Recorder:      o.Recorder,
	}
}

// GenerateRules derives association rules meeting the confidence threshold
// from mined frequent itemsets, strongest first.
func GenerateRules(res *Result, minConfidence float64) ([]Rule, error) {
	return rules.Generate(res, rules.Params{MinConfidence: minConfidence})
}

// RulesReport is the outcome of parallel rule generation: the rules plus
// the emulated step's virtual response time and work accounting.
type RulesReport = core.RulesReport

// RuleGenOptions configures parallel rule generation.
type RuleGenOptions struct {
	// Procs is the number of emulated processors.
	Procs int
	// Machine is the cost model; the zero value selects the "t3e" preset.
	Machine Machine
	// MinConfidence is the minimum confidence threshold in [0, 1].
	MinConfidence float64
}

// GenerateRulesOn runs the second discovery step on an emulated cluster:
// frequent itemsets are dealt round-robin to Procs processors, each runs
// ap-genrules on its share, and the rules are collected with an all-to-all
// broadcast.  The rules are identical to GenerateRules's.  Options are
// validated first; misconfigurations return a *OptionError naming the
// field.
func GenerateRulesOn(res *Result, o RuleGenOptions) (*RulesReport, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	return core.GenerateRules(res, o.Procs, o.Machine, o.MinConfidence)
}

// Generate produces a synthetic transaction database with the Quest-style
// generator the paper's workloads come from.
func Generate(o GenOptions) (*Dataset, error) { return datagen.Generate(o) }

// GenerateSource returns the same workload as a streaming TxSource: every
// scan re-runs the identically seeded generator, so a larger-than-memory
// database can be spilled straight into a PartitionedDataset
// (WritePartitionedDataset) without ever materializing it.
func GenerateSource(o GenOptions) (TxSource, error) { return datagen.Source(o) }

// DefaultGen returns the paper's T15.I6 workload parameters (average
// transaction length 15, average pattern length 6, 1000 items).
func DefaultGen() GenOptions { return datagen.Defaults() }

// NewItemset builds an Itemset from arbitrary items (sorting and removing
// duplicates).
func NewItemset(items ...Item) Itemset { return itemset.New(items...) }

// NewDataset builds a Dataset from transactions.
func NewDataset(txns []Transaction) *Dataset { return itemset.NewDataset(txns) }

// FromItems builds a Dataset from plain item slices, assigning sequential
// transaction IDs — convenient for examples and tests.
func FromItems(rows [][]Item) *Dataset {
	txns := make([]Transaction, len(rows))
	for i, row := range rows {
		txns[i] = Transaction{ID: int64(i), Items: itemset.New(row...)}
	}
	return itemset.NewDataset(txns)
}

// ReadDataset parses a transaction file, auto-detecting the format: the
// compact binary format (WriteDatasetBinary) or basket text (one
// transaction per line, whitespace-separated non-negative integer items).
func ReadDataset(r io.Reader) (*Dataset, error) { return itemset.ReadAuto(r) }

// WriteDataset writes a dataset in the basket text format.
func WriteDataset(w io.Writer, d *Dataset) error { return itemset.Write(w, d) }

// WriteDatasetBinary writes a dataset in the compact varint/delta binary
// format, typically several times smaller than basket text.
func WriteDatasetBinary(w io.Writer, d *Dataset) error { return itemset.WriteBinary(w, d) }

// ReadNamedDataset parses a transaction file whose items are names (one
// transaction per line, names separated by delim, default ","), returning
// the dataset and the vocabulary built from the names.
func ReadNamedDataset(r io.Reader, delim string) (*Dataset, *Vocabulary, error) {
	return itemset.ReadNamed(r, delim)
}

// NewVocabulary builds a vocabulary from names; name i becomes item i.
func NewVocabulary(names []string) (*Vocabulary, error) { return itemset.NewVocabulary(names) }

// ReadVocabulary reads a vocabulary file: one item name per line, in item
// order (the format WriteVocabulary emits).
func ReadVocabulary(r io.Reader) (*Vocabulary, error) { return itemset.ReadVocab(r) }

// WriteVocabulary writes a vocabulary, one name per line in item order.
func WriteVocabulary(w io.Writer, v *Vocabulary) error { return itemset.WriteVocab(w, v) }

// WriteResult saves a mining result's frequent itemsets in a line-oriented
// text format; ReadResult restores everything rule generation needs, so a
// database can be mined once and rules derived later at many thresholds.
func WriteResult(w io.Writer, res *Result) error { return apriori.WriteResult(w, res) }

// ReadResult loads a result saved by WriteResult.
func ReadResult(r io.Reader) (*Result, error) { return apriori.ReadResult(r) }

// TraceTimeline renders a span trace's leaf slices (a run recorded through
// ParallelOptions.Recorder, or a FlightRecorder's dump) as a text Gantt
// chart: one row per rank, width columns spanning the run, compute as '#',
// sends as '>', disk I/O as 'o', idle waits as '.', retry backoff as 'r' and
// discarded frames as 'x'.
func TraceTimeline(w io.Writer, t *SpanTrace, width int) error {
	return obsv.WriteTimeline(w, t, width)
}

// Observability: structured spans over the repo's two clocks.  Install a
// collector on a parallel run (ParallelOptions.Recorder); a server records
// its own spans into an always-on flight ring (Server.Flight).  Then export
// the assembled trace as Perfetto-loadable JSON, distill it into the
// per-pass cost-attribution report, or draw it as a text Gantt chart:
//
//	rec := parapriori.NewSpanCollector()
//	rep, _ := parapriori.MineParallel(data, parapriori.ParallelOptions{
//		Algorithm: parapriori.IDD, Procs: 8, Recorder: rec,
//		MineOptions: parapriori.MineOptions{MinSupport: 0.01},
//	})
//	tr := rec.Trace()
//	parapriori.WriteSpanTrace(f, tr)                               // open in ui.perfetto.dev
//	parapriori.WriteAttributionTable(os.Stdout, parapriori.TraceAttribution(tr))
//	parapriori.TraceTimeline(os.Stdout, tr, 100)
type (
	// Span is one named interval on one rank's timeline, carrying
	// deterministic key/value attributes.
	Span = obsv.Span
	// SpanAttr is one key/value attribute on a span or trace.
	SpanAttr = obsv.Attr
	// Recorder is the pluggable span sink a mining run emits into.
	Recorder = obsv.Recorder
	// SpanCollector is the standard in-memory Recorder; its Trace() output
	// is deterministically ordered.
	SpanCollector = obsv.Collector
	// SpanTrace is an assembled span log: metadata plus canonically ordered
	// spans.
	SpanTrace = obsv.Trace
	// PassCost is one pass's cost-attribution bucket: compute/IO/send/idle/
	// retry totals, elapsed time and critical path.
	PassCost = obsv.PassCost
	// FlightRecorder is an always-on bounded Recorder: a per-rank ring of
	// the most recently completed spans, dumpable at any time as the same
	// byte-deterministic trace a SpanCollector assembles.  Unlike the
	// collector it never grows, so it can stay installed on every run.
	FlightRecorder = obsv.Flight
)

// NewSpanCollector builds a collector for a virtual-time mining run.  (The
// serving tier builds its own real-clock collectors internally; mining is
// the case callers assemble by hand.)
func NewSpanCollector() *SpanCollector { return obsv.NewCollector(obsv.ClockVirtual) }

// NewFlightRecorder builds an always-on flight recorder for a virtual-time
// mining run, retaining the last spansPerRank completed spans per rank
// (0 selects the default, 256).  Dump it any time with Trace().
func NewFlightRecorder(spansPerRank int) *FlightRecorder {
	return obsv.NewFlight(obsv.ClockVirtual, spansPerRank)
}

// TeeRecorders fans every recorded span out to all the given recorders (nils
// are dropped) — the way to run a bounded FlightRecorder alongside a full
// SpanCollector on the same run.
func TeeRecorders(recs ...Recorder) Recorder { return obsv.Tee(recs...) }

// WriteSpanTrace writes a trace as Chrome trace-event JSON, loadable in
// Perfetto (ui.perfetto.dev) or chrome://tracing.  Output is
// byte-deterministic for deterministic span sets.
func WriteSpanTrace(w io.Writer, t *SpanTrace) error { return obsv.WriteTrace(w, t) }

// TraceAttribution distills a trace into per-pass cost buckets — the
// measured counterpart of the paper's parallel-runtime decomposition.  The
// category totals reconcile exactly with the run's cluster Stats.
func TraceAttribution(t *SpanTrace) []PassCost { return obsv.Attribution(t) }

// WriteAttributionTable renders attribution buckets as an aligned text
// table, one row per pass plus the out-of-pass bucket and the total.
func WriteAttributionTable(w io.Writer, costs []PassCost) error {
	return obsv.WriteAttribution(w, costs)
}

// MachinePreset pairs a machine model with the short name commands accept
// on their -machine flags ("t3e", "sp2", "cow", "ideal").
type MachinePreset = cluster.Preset

// Machines returns every built-in machine model in presentation order, so
// commands and callers can enumerate the presets instead of hard-coding a
// flag switch.
func Machines() []MachinePreset { return cluster.Presets() }

// MachineByName finds a machine preset by its flag spelling.
func MachineByName(name string) (MachinePreset, bool) { return cluster.ByName(name) }

// Serving layer: an online recommendation service over mined rules.  Build
// an Index from any rule set, Publish it into a Server, and answer basket
// queries while later mining runs hot-swap fresher indexes underneath the
// traffic:
//
//	ix := parapriori.BuildIndex(rs, parapriori.ServeOptions{})
//	srv := parapriori.NewServer(parapriori.ServeOptions{})
//	defer srv.Close()
//	srv.Publish(ix)
//	recs, _ := srv.Recommend([]parapriori.Item{3, 4}, 10)
//	http.ListenAndServe(":8080", srv.Handler(nil))
//
// ServeOptions configures the server (worker pool, cache size); the rule
// index takes no options, and a query's K is capped at a fixed 100.  It is a
// defined type (not an alias) so it can carry Validate; zero fields select
// defaults throughout.
type ServeOptions serve.Options

type (
	// RuleIndex is an immutable index over a rule set, answering basket
	// queries without scanning every rule.
	RuleIndex = serve.Index
	// Server serves basket recommendations from an atomically hot-swappable
	// RuleIndex snapshot with a per-snapshot query cache.
	Server = serve.Server
	// ServerMetrics is the server's observability snapshot (QPS, latency
	// percentiles, cache hit rate, snapshot generation).
	ServerMetrics = serve.Metrics
)

// ErrNoSnapshot is returned by Server.Recommend before the first Publish.
var ErrNoSnapshot = serve.ErrNoSnapshot

// BuildIndex builds an immutable index over rules (as produced by
// GenerateRules or GenerateRulesOn).
func BuildIndex(rs []Rule, o ServeOptions) *RuleIndex { return serve.NewIndex(rs, serve.Options(o)) }

// NewServer creates an empty rule server; Publish an index to start
// answering queries.
func NewServer(o ServeOptions) *Server { return serve.NewServer(serve.Options(o)) }
