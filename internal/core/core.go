// Package core implements the paper's contribution: the four parallel
// formulations of Apriori — Count Distribution (CD), Data Distribution
// (DD), Intelligent Data Distribution (IDD) and Hybrid Distribution (HD) —
// plus the paper's DD+comm ablation (DD's round-robin partitioning with
// IDD's ring communication), all running on the emulated message-passing
// machine of package cluster.
//
// All of them are one SPMD pass body (see pass.go): HD arranges the P
// processors as a grid of G rows and P/G columns, partitions candidates
// down the columns (IDD within a column) and transactions across columns
// (CD across columns).  G = 1 degenerates to CD and G = P to IDD, which the
// tests assert.  A formulation is the three decisions that body leaves open
// — the grid's shape, where candidates are placed, and how a column moves
// its transactions past them — and the body reads its transactions through
// one stream (stream.go).  Where they live is the type of the source Mine is
// handed: a resident *itemset.Dataset, split into per-rank shards, or a
// *txstore.Store, whose partition files each rank streams out of core.
// Params.Validate checks every option once, the serial miner's through
// apriori.Params.Validate.
//
// Every formulation produces exactly the frequent itemsets of the serial
// algorithm (package apriori); the integration tests check bit-for-bit
// equality.
package core

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"parapriori/internal/apriori"
	"parapriori/internal/cluster"
	"parapriori/internal/countengine"
	"parapriori/internal/hashtree"
	"parapriori/internal/itemset"
	"parapriori/internal/obsv"
	"parapriori/internal/partition"
	"parapriori/internal/txstore"
)

// Algorithm selects a parallel formulation.
type Algorithm string

// The formulations the paper evaluates (CD, DD, IDD, HD and the DD+comm
// ablation) plus HPA from the related work it analyzes (Section III-E).
const (
	CD     Algorithm = "cd"     // Count Distribution [6]
	DD     Algorithm = "dd"     // Data Distribution [6]
	DDComm Algorithm = "ddcomm" // DD with IDD's ring communication (Fig. 10's "DD+comm")
	IDD    Algorithm = "idd"    // Intelligent Data Distribution (this paper)
	HD     Algorithm = "hd"     // Hybrid Distribution (this paper)
	HPA    Algorithm = "hpa"    // Hash Partitioned Apriori [11]
)

// Params configures a parallel mining run.
type Params struct {
	// Algo is the parallel formulation to run.
	Algo Algorithm
	// P is the number of (emulated) processors.
	P int
	// Machine is the cost model; zero value means cluster.T3E().
	Machine cluster.Machine
	// Apriori carries the mining parameters (minimum support, hash-tree
	// shape, MaxPasses, engine).
	Apriori apriori.Params
	// HDThreshold is m, the minimum number of candidates per grid row
	// before HD adds rows: G = smallest divisor of P that is at least
	// ceil(M/m).  The paper used m = 50K on 64 processors.  Defaults to
	// 5000.  Only used by HD.
	HDThreshold int
	// FixedG, if positive, pins HD's row count G instead of choosing it
	// per pass (the paper's Figures 13–15 pin the grid, e.g. 8×8).
	FixedG int
	// Recorder, when non-nil, receives the run's observability spans: a
	// hierarchy of run → pass → engine section over the virtual clock, plus
	// every slice of every processor's timeline (compute, disk read, send,
	// idle wait, retry) as a leaf, each recorded as it completes.  Off by
	// default: big runs complete a slice per message.  Spans carry only
	// virtual time, so a seeded run records a bit-identical trace every
	// time.  See package obsv for the collector, the flight ring and the
	// Perfetto/attribution/timeline exporters.
	Recorder obsv.Recorder
	// Faults installs a deterministic fault plan on the emulated cluster
	// and turns on fault-tolerant execution: pass-level checkpointing,
	// crash recovery via coordinated rollback, and graceful degradation to
	// the surviving processors when a rank is permanently lost.  Every
	// formulation on every backend runs under a plan: the machine, not the
	// algorithm, makes its messages reliable.
	Faults *cluster.FaultPlan
	// CheckpointDir, when non-empty, persists every completed pass's
	// frequent levels to <dir>/checkpoint.freq (WriteResult codec, written
	// atomically via temp file + rename) and resumes from that file on the
	// next Mine over the same workload — a killed run restarts at its first
	// unmined pass instead of from scratch.  Resumed passes are marked
	// Restored in the report.  A checkpoint mined from a different workload
	// (transaction or minimum count mismatch) is an error.
	CheckpointDir string
}

const (
	// PageBytes is the buffer size for transaction movement in DD/IDD/HD:
	// the paper's one-page buffers, sized to the T3E's 16 KB messages.
	PageBytes = 16384
	// MaxRestarts bounds the recovery attempts before Mine gives up and
	// returns the last failure.
	MaxRestarts = 8
)

func (p Params) withDefaults() Params {
	if p.Machine.Name == "" {
		p.Machine = cluster.T3E()
	}
	if p.HDThreshold == 0 {
		p.HDThreshold = 5000
	}
	return p
}

// Validate checks p for a run over a resident dataset or, when streamed, a
// partitioned store: the serial miner's parameters (apriori.Params.Validate),
// then the parallel ones.  It returns nil or an *apriori.FieldError naming
// the first refused option.
func (p Params) Validate(streamed bool) error {
	if err := p.Apriori.Validate(); err != nil {
		return err
	}
	switch _, known := formulations[p.Algo]; {
	case !known:
		return apriori.Refuse("Algorithm", "unknown algorithm %q (want cd, dd, ddcomm, idd, hd or hpa)", p.Algo)
	case p.P < 1:
		return apriori.Refuse("Procs", "must be at least 1 (got %d)", p.P)
	case p.HDThreshold < 0:
		return apriori.Refuse("HDThreshold", "negative (%d)", p.HDThreshold)
	case p.FixedG < 0:
		return apriori.Refuse("FixedG", "negative (%d)", p.FixedG)
	case p.FixedG > 0 && p.P%p.FixedG != 0:
		return apriori.Refuse("FixedG", "%d does not divide Procs %d", p.FixedG, p.P)
	}
	if field, reason := p.hole(streamed); field != "" {
		return apriori.Refuse(field, "%s", reason)
	}
	return nil
}

// hole reports the first algorithm × feature combination in p that no code
// path honours, as the offending field and the reason, or "", "" when the
// combination is legal.  These four are all the holes in the option matrix
// — a misuse guard, the serial-only pair filter and HPA's two — and this is
// the one place they are written; every other combination of formulation,
// counting engine, source, checkpointing and fault plan runs.
func (p Params) hole(streamed bool) (field, reason string) {
	nonDefaultEngine := p.Apriori.Engine != "" && p.Apriori.Engine != countengine.Default
	switch {
	case p.FixedG > 0 && p.Algo != HD:
		return "FixedG", fmt.Sprintf("only HD chooses its grid shape; %q's is fixed", p.Algo)
	case p.Apriori.DHPBuckets > 0:
		// The pair filter has no parallel form yet (PDM).
		return "DHPBuckets", "DHP filtering is serial mining only"
	case p.Algo == HPA && nonDefaultEngine:
		return "Engine", fmt.Sprintf("hpa has no counting structure for engine %q to replace: owners probe a table of whole itemsets", p.Apriori.Engine)
	case p.Algo == HPA && streamed:
		return "Backend", "hpa's exchange kernel enumerates the rank's resident shards (it is kept as the Section III-E baseline), so it cannot stream a store"
	}
	return "", ""
}

// PassReport describes one level-wise pass of a parallel run.
type PassReport struct {
	K          int
	Candidates int // |C_k| globally
	Frequent   int // |F_k| globally
	// GridRows and GridCols describe the processor arrangement this pass:
	// CD is 1×P, IDD is P×1, DD/DDComm are P×1, HD is G×(P/G) (Table II).
	GridRows int
	GridCols int
	// TreeParts is the number of hash-tree partitions each processor used
	// (CD exceeds 1 only when the tree outgrows Machine.MemoryBytes —
	// the Figure 12 regime).
	TreeParts int
	// Restored marks a pass that was not mined by this run but seeded from
	// a persistent checkpoint (Params.CheckpointDir).  Restored passes carry
	// only K and Frequent; candidate counts and timings belong to the run
	// that originally mined them.
	Restored bool
	// CandImbalance is (max-mean)/mean of per-processor candidate counts.
	CandImbalance float64
	// TimeImbalance is (max-mean)/mean of per-processor compute time in
	// the counting phase of this pass.
	TimeImbalance float64
	// Tree aggregates the hash-tree operation counters over all processors.
	Tree hashtree.Stats
	// BytesMoved is the transaction bytes communicated this pass (DD, IDD
	// and HD move data; CD moves only counts).
	BytesMoved int64
	// ResponseTime is the virtual time this pass took (max over
	// processors).
	ResponseTime float64
	// Read aggregates the out-of-core read path's work this pass over all
	// processors; zero-valued on the in-memory backend.
	Read ReadStats
}

// ReadStats aggregates the out-of-core read path's telemetry: what the
// ranks read from the partition files, what they survived, and how the
// virtual clock split between waiting on blocks and decoding them.
// Everything is charged on the virtual clock, so a seeded ooc run reports
// bit-identical numbers.
type ReadStats struct {
	// Partitions, Blocks and Bytes count partition files opened, blocks
	// verified and on-disk bytes consumed (block framing included).
	Partitions int
	Blocks     int64
	Bytes      int64
	// CRCRetries counts block checksum failures survived by re-reading.
	CRCRetries int64
	// Stalls counts synchronous block reads the ranks' clocks waited on.
	// Without read-ahead every read is a stall — the number double-buffering
	// (see ROADMAP) would overlap with compute.
	Stalls int64
	// DecodeSeconds is the virtual compute time spent decoding verified
	// payload bytes into transactions — the decode half of the
	// decode/count split.
	DecodeSeconds float64
}

// Add accumulates o into s.
func (s *ReadStats) Add(o ReadStats) {
	s.Partitions += o.Partitions
	s.Blocks += o.Blocks
	s.Bytes += o.Bytes
	s.CRCRetries += o.CRCRetries
	s.Stalls += o.Stalls
	s.DecodeSeconds += o.DecodeSeconds
}

// Report is the outcome of a parallel mining run.
type Report struct {
	Algo   Algorithm
	P      int
	Params Params
	// Result holds the globally frequent itemsets; identical to the serial
	// algorithm's output.
	Result *apriori.Result
	// Passes holds one report per level-wise pass, Passes[0] being k=1.
	Passes []PassReport
	// ResponseTime is the total virtual response time (max processor
	// clock), the y-axis of Figures 10, 12, 14 and 15.
	ResponseTime float64
	// Clocks is each processor's final virtual clock.
	Clocks []float64
	// Total aggregates per-processor accounting (compute, idle, I/O,
	// communication).
	Total cluster.Stats
	// Wall is the real wall-clock duration of the emulated run.
	Wall time.Duration
	// Restarts is the number of recovery rollbacks a fault-tolerant run
	// performed; LostRanks the processors permanently removed from the
	// computation (declared dead or crashed with Crash.Permanent).
	Restarts  int
	LostRanks []int
	// ResumedPasses is the number of passes seeded from a persistent
	// checkpoint (Params.CheckpointDir) instead of being mined by this run.
	ResumedPasses int
	// Read aggregates the out-of-core read path over the whole run (the sum
	// of the per-pass Read fields); zero-valued on the in-memory backend.
	Read ReadStats
}

// AvgLeafVisitsPerTxn returns the run-wide average number of distinct hash
// tree leaves visited per transaction processed — the y-axis of Figure 11.
func (r *Report) AvgLeafVisitsPerTxn() float64 {
	var s hashtree.Stats
	for _, pass := range r.Passes {
		s.Add(pass.Tree)
	}
	return s.AvgLeafVisits()
}

// PhaseBreakdown returns each phase's share of the run's total busy time
// (compute + I/O + send overhead + idle, summed over processors), the
// decomposition the paper reports as "hash tree construction is 24.8% of
// the runtime at 64 processors".  Idle and communication time appear under
// the pseudo-phases "idle" and "comm".  Shares sum to ~1.
func (r *Report) PhaseBreakdown() map[string]float64 {
	total := r.Total.ComputeTime + r.Total.IOTime + r.Total.SendTime + r.Total.IdleTime + r.Total.RetryTime
	if total <= 0 {
		return nil
	}
	out := make(map[string]float64, len(r.Total.Phases)+3)
	for name, seconds := range r.Total.Phases {
		out[name] = seconds / total
	}
	out["comm"] = r.Total.SendTime / total
	out["idle"] = r.Total.IdleTime / total
	if r.Total.RetryTime > 0 {
		out["retry"] = r.Total.RetryTime / total
	}
	return out
}

// Mine runs the selected parallel formulation over src on an emulated
// cluster of prm.P processors and returns the report.  Where the
// transactions live is the source's type: a *txstore.Store is streamed out
// of core, each rank reading its own partition files block by block; a
// *itemset.Dataset stays resident, split evenly among the processors (the
// paper's standing assumption).  Any other source is an error.
func Mine(src itemset.Source, prm Params) (*Report, error) {
	store, _ := src.(*txstore.Store)
	data, _ := src.(*itemset.Dataset)
	if store == nil && data == nil {
		return nil, fmt.Errorf("core: cannot mine a %T source (want a non-nil *itemset.Dataset or *txstore.Store)", src)
	}
	if err := prm.Validate(store != nil); err != nil {
		return nil, err
	}
	prm = prm.withDefaults()
	start := time.Now() //checkinv:allow walltime — the Wall stat reports real elapsed time and never enters the virtual clock

	info := src.Info()
	var shards []*itemset.Dataset
	if data != nil {
		shards = data.Split(prm.P)
	}

	cl, err := cluster.New(prm.P, prm.Machine)
	if err != nil {
		return nil, err
	}
	cl.SetRecorder(prm.Recorder)
	if err := cl.InstallFaults(prm.Faults); err != nil {
		return nil, err
	}

	active := make([]int, prm.P)
	owned := make([][]int, prm.P)
	for i := range active {
		active[i] = i
		owned[i] = []int{i}
	}
	engB, err := countengine.New(prm.Apriori.Engine, countengine.Config{
		Tree:     prm.Apriori.Tree,
		NumItems: info.NumItems,
	})
	if err != nil {
		return nil, err
	}
	run := &run{
		prm:         prm,
		cl:          cl,
		world:       cl.World(),
		store:       store,
		numItems:    info.NumItems,
		nTxns:       info.NumTxns,
		shards:      shards,
		minCount:    prm.Apriori.MinCount(info.NumTxns),
		perProc:     make([]procTrace, prm.P),
		active:      active,
		ownedShards: owned,
		restartWant: make([]bool, prm.P),
		rec:         prm.Recorder,
		engB:        engB,
	}
	run.rebuildVRank()
	run.setRunMeta()
	resumed, err := run.loadCheckpoint()
	if err != nil {
		return nil, err
	}

	if prm.Faults != nil {
		if err := run.mineWithRecovery(run.body); err != nil {
			return nil, err
		}
	} else if err := cl.Run(run.body); err != nil {
		return nil, err
	}
	run.runSpan(resumed)

	rep := &Report{
		Algo:          prm.Algo,
		P:             prm.P,
		Params:        prm,
		Result:        run.assembleResult(),
		Passes:        run.assemblePasses(),
		ResponseTime:  cl.MaxClock(),
		Clocks:        cl.Clocks(),
		Total:         cl.TotalStats(),
		Wall:          time.Since(start), //checkinv:allow walltime — pairs with the Wall stat's time.Now above
		Restarts:      run.restarts,
		LostRanks:     append([]int(nil), run.lost...),
		ResumedPasses: resumed,
	}
	for _, pass := range rep.Passes {
		rep.Read.Add(pass.Read)
	}
	return rep, nil
}

// run carries the state shared by the P SPMD goroutines of one mining run.
// Each processor writes only its own perProc slot (and its own restartWant
// flag); global frequent levels are identical on every processor, so the
// first active rank's copy is authoritative.
type run struct {
	prm      Params
	cl       *cluster.Cluster
	world    *cluster.Comm
	minCount int64
	perProc  []procTrace

	// numItems and nTxns are the database's dimensions; its transactions are
	// either resident — shards, one per original rank — or in store, the
	// opened partition store of the out-of-core backend.  Only openStream
	// (and HPA's kernel, which is resident-only) looks at which.
	numItems int
	nTxns    int
	shards   []*itemset.Dataset
	store    *txstore.Store

	// active lists the global ranks still participating, in ascending
	// order; vrank inverts it (-1 for removed ranks).  The body shapes its
	// G×cols grid over len(active) virtual ranks, so a degraded run is
	// simply a smaller grid.
	active []int
	vrank  []int
	// ownedShards[rank] are the data shards rank counts: its own, plus any
	// adopted from permanently lost ring predecessors.
	ownedShards [][]int
	// restartWant[rank] tells the rank to charge a checkpoint restore when
	// its body re-enters after a rollback.  Each goroutine touches only its
	// own slot.
	restartWant []bool
	restarts    int
	lost        []int
	// rec receives observability spans (nil when not tracing); the body
	// emits pass and section spans through the helpers in obsv.go.
	rec obsv.Recorder
	// engB builds the per-pass counting engines; built once in Mine (NewPass
	// is goroutine-safe, the builder itself is read-only during the run).
	engB countengine.Builder
	// memos holds the candidate sets and partitions the ranks share (see
	// passcache.go), guarded by memoMu.
	memoMu sync.Mutex
	memos  map[passKey]*passMemo
}

// np returns the number of participating processors — the "P" the grid is
// shaped over.  Falls back to prm.P when the active list is not
// initialized (unit tests construct run directly).
func (r *run) np() int {
	if len(r.active) > 0 {
		return len(r.active)
	}
	return r.prm.P
}

// rebuildVRank recomputes the global-rank → virtual-rank map from active.
func (r *run) rebuildVRank() {
	r.vrank = make([]int, r.prm.P)
	for i := range r.vrank {
		r.vrank[i] = -1
	}
	for v, g := range r.active {
		r.vrank[g] = v
	}
}

// procTrace is one processor's private record of the run.
type procTrace struct {
	levels [][]apriori.Frequent
	passes []passLocal
}

// passLocal is one processor's record of one pass.
type passLocal struct {
	k             int
	candidates    int // global |C_k|
	localCands    int // candidates in this processor's tree
	frequent      int // global |F_k|
	gridRows      int
	gridCols      int
	treeParts     int
	tree          hashtree.Stats
	bytesMoved    int64
	countTime     float64 // compute seconds spent in the counting phase
	clockStart    float64
	clockEnd      float64
	candImbalance float64
	restored      bool // seeded from a persistent checkpoint, not mined
	// read is the processor's out-of-core read-path record for the pass
	// (zero on the in-memory backend).
	read ReadStats
}

// firstActive returns the lowest participating global rank, whose copy of
// the (globally identical) frequent levels is authoritative.
func (r *run) firstActive() int {
	if len(r.active) > 0 {
		return r.active[0]
	}
	return 0
}

// assembleResult builds the apriori.Result from the first active
// processor's levels.
func (r *run) assembleResult() *apriori.Result {
	res := &apriori.Result{N: r.nTxns, MinCount: r.minCount}
	res.Levels = r.perProc[r.firstActive()].levels
	for _, pl := range r.perProc[r.firstActive()].passes {
		res.Passes = append(res.Passes, apriori.PassStats{
			K:          pl.k,
			Candidates: pl.candidates,
			Frequent:   pl.frequent,
			Tree:       pl.tree,
		})
	}
	return res
}

// assemblePasses merges the active processors' pass records into
// PassReports.  Ranks lost to permanent faults are excluded: their
// truncated records describe work the recovered computation redid.
func (r *run) assemblePasses() []PassReport {
	members := r.active
	if len(members) == 0 {
		members = make([]int, r.prm.P)
		for i := range members {
			members[i] = i
		}
	}
	nPasses := len(r.perProc[r.firstActive()].passes)
	out := make([]PassReport, nPasses)
	for k := 0; k < nPasses; k++ {
		ref := r.perProc[r.firstActive()].passes[k]
		pr := PassReport{
			K:             ref.k,
			Candidates:    ref.candidates,
			Frequent:      ref.frequent,
			GridRows:      ref.gridRows,
			GridCols:      ref.gridCols,
			TreeParts:     ref.treeParts,
			CandImbalance: ref.candImbalance,
			Restored:      ref.restored,
		}
		var times []float64
		var maxEnd, maxStart float64
		for _, pi := range members {
			pl := r.perProc[pi].passes[k]
			pr.Tree.Add(pl.tree)
			pr.BytesMoved += pl.bytesMoved
			pr.Read.Add(pl.read)
			times = append(times, pl.countTime)
			if pl.clockEnd > maxEnd {
				maxEnd = pl.clockEnd
			}
			if pl.clockStart > maxStart {
				maxStart = pl.clockStart
			}
			if pl.treeParts > pr.TreeParts {
				pr.TreeParts = pl.treeParts
			}
		}
		pr.ResponseTime = maxEnd - maxStart
		pr.TimeImbalance = partition.Imbalance(times)
		out[k] = pr
	}
	return out
}

// sortFrequent orders a frequent level lexicographically, the canonical
// order apriori.GenFlat requires.  A level's itemsets are distinct, so the
// order is total and an unstable sort is deterministic.
func sortFrequent(level []apriori.Frequent) {
	slices.SortFunc(level, func(a, b apriori.Frequent) int { return a.Items.Compare(b.Items) })
}

// frequentBytes is the modeled wire size of a frequent-itemset list: 4
// bytes per item plus an 8-byte count per set.
func frequentBytes(level []apriori.Frequent) int {
	b := 0
	for _, f := range level {
		b += 4*len(f.Items) + 8
	}
	return b
}

func itemsetsOf(level []apriori.Frequent) []itemset.Itemset {
	out := make([]itemset.Itemset, len(level))
	for i, f := range level {
		out[i] = f.Items
	}
	return out
}
