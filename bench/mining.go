package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"parapriori"
	"parapriori/internal/apriori"
	"parapriori/internal/cluster"
	"parapriori/internal/countengine"
	"parapriori/internal/itemset"
	"parapriori/internal/obsv"
	"parapriori/internal/partition"
	"parapriori/internal/rules"
	"parapriori/internal/serve"
	"parapriori/internal/txstore"
)

// The shapes of the two mining workloads.  mine-wide is the paper's regime:
// T15.I6 over 1 000 items at 1.07 % support gives some 250 K size-2
// candidates, so candidate generation, partitioning, tree build and leaf
// checks do the work.  (At 1 % the candidate count straddled 280 500 from
// seed to seed, where the candidate slice's growth takes one more step and
// every rank allocates an eighth more: allocation had two modes.)  mine-ooc
// is the opposite: few candidates, nine scans of a store that is streamed
// from disk block by block.
const (
	wideProcs           = 8 // at scale.wideMinsup
	oocProcs, oocMinsup = 4, 0.02
	oocPartitions       = 8
	minConfidence       = 0.5
	topK                = 10
)

// mineEnv is one set-up mining workload.
type mineEnv struct {
	wide bool
	// The timed operation's formulation, processors, support and counting
	// engine.  mine-wide takes the library-default engine on purpose, so that
	// a changed default shows.
	algo   parapriori.Algorithm
	procs  int
	minsup float64
	engine string
	src    stream
	data   *itemset.Dataset // mine-wide: the resident dataset
	dir    string           // mine-ooc: the partitioned store
	probe  []itemset.Item   // mine-ooc: the basket of the pipeline's first query
}

func newMineEnv(wide bool, sc scale) *mineEnv {
	if wide {
		return &mineEnv{wide: true, algo: parapriori.HD, procs: wideProcs, minsup: sc.wideMinsup}
	}
	return &mineEnv{algo: parapriori.CD, procs: oocProcs, minsup: oocMinsup, engine: "bitset"}
}

func (e *mineEnv) close() {
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// mine runs one parallel formulation over the workload's input with the
// workload's processors and engine.  store is nil for a resident run.
func (e *mineEnv) mine(algo parapriori.Algorithm, data *itemset.Dataset, store *txstore.Store) (*parapriori.Report, error) {
	o := parapriori.ParallelOptions{
		Algorithm:   algo,
		Procs:       e.procs,
		MineOptions: parapriori.MineOptions{MinSupport: e.minsup, Engine: e.engine},
	}
	if store != nil {
		o.Backend = "ooc"
		o.Source = store
	}
	return parapriori.MineParallel(data, o)
}

// mineOut is what one timed operation produced and how long its steps took.
type mineOut struct {
	rep    *parapriori.Report
	answer []rules.Rule // mine-ooc: the pipeline's first answer
	nRules int
	// wall is the whole operation; the others are its steps (mine-ooc).
	wall, rulesWall, indexWall, publishWall time.Duration
}

// op is the workload's timed operation.  mine-wide: one MineParallel(HD) call
// over the resident dataset.  mine-ooc: the whole pipeline from opening the
// store to the first answered query.  With a recorder, every call into a
// layer is a span under parent.
func (e *mineEnv) op(rec *recorder, parent int) (*mineOut, error) {
	out := &mineOut{}
	var err error
	if e.wide {
		out.wall = rec.timed(parent, "core.MineParallel", func(int) {
			out.rep, err = e.mine(e.algo, e.data, nil)
		})
		return out, err
	}
	var (
		store *txstore.Store
		rs    []rules.Rule
		ix    *serve.Index
		srv   *serve.Server
	)
	out.wall = rec.timed(parent, "pipeline", func(id int) {
		rec.timed(id, "txstore.Open", func(int) { store, err = parapriori.OpenPartitionedDataset(e.dir) })
		if err != nil {
			return
		}
		rec.timed(id, "core.MineParallel", func(int) { out.rep, err = e.mine(e.algo, nil, store) })
		if err != nil {
			return
		}
		out.rulesWall = rec.timed(id, "rules.Generate", func(int) { rs, err = parapriori.GenerateRules(out.rep.Result, minConfidence) })
		if err != nil {
			return
		}
		out.indexWall = rec.timed(id, "serve.NewIndex", func(int) { ix = parapriori.BuildIndex(rs, parapriori.ServeOptions{}) })
		out.publishWall = rec.timed(id, "serve.Publish", func(int) {
			srv = parapriori.NewServer(parapriori.ServeOptions{})
			srv.Publish(ix)
		})
		rec.timed(id, "serve.Recommend", func(int) { out.answer, err = srv.Recommend(e.probe, topK) })
	})
	if srv != nil {
		srv.Close()
	}
	out.nRules = len(rs)
	return out, err
}

// setupMine generates the input (and, for mine-ooc, spills it into a
// partitioned store that is never resident) and runs the operation once to
// warm up: the first repetition in a process measured 40–100 % slower.
func setupMine(r *run, wide bool) (*mineEnv, error) {
	rec := r.rec
	sid := rec.begin(0, "setup")
	defer rec.end(sid)
	e := newMineEnv(wide, r.sc)
	if wide {
		e.src = newStream(wideGen(r.sc.wideN), r.seed)
		var err error
		rec.timed(sid, "datagen.Generator.Next", func(int) { e.data, err = parapriori.MaterializeSource(e.src) })
		if err != nil {
			return nil, err
		}
	} else {
		e.src = newStream(narrowGen(r.sc.oocN), r.seed)
		e.dir = filepath.Join(outDir, "store-"+strconv.Itoa(os.Getpid()))
		if err := os.RemoveAll(e.dir); err != nil {
			return nil, err
		}
		var err error
		rec.timed(sid, "txstore.Spill", func(int) {
			_, err = parapriori.WritePartitionedDataset(e.dir, e.src, parapriori.PartitionOptions{Partitions: oocPartitions})
		})
		if err != nil {
			return nil, err
		}
		first, err := head(e.src, 1)
		if err != nil {
			return nil, err
		}
		e.probe = first[0].Items
	}
	if _, err := e.op(rec, sid); err != nil { // the warm-up
		e.close()
		return nil, err
	}
	return e, nil
}

// timedSetups sets a workload up sc.setups times (once when traced),
// discarding all but the last, and reports the median as setup_s.
func timedSetups[E any](r *run, build func() (E, error), discard func(E)) (E, error) {
	n := r.sc.setups
	if r.rec != nil {
		n = 1
	}
	var (
		env   E
		times []float64
	)
	for i := 0; i < n; i++ {
		if i > 0 {
			discard(env)
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if env, err = build(); err != nil {
			return env, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	if r.rec == nil {
		r.set("setup_s", median(times))
	}
	return env, nil
}

func resultSHA(res *apriori.Result) string {
	h := sha256.New()
	if err := apriori.WriteResult(h, res); err != nil {
		return "unwritable: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sameRules compares two ranked answers by digest (which covers the length).
func sameRules(a, b []rules.Rule) bool { return answerDigest(a) == answerDigest(b) }

// mineOracle is the reference every mining result is held against: the plain
// single-threaded miner over the same input, and for mine-ooc the answer the
// reference rule index gives to the pipeline's first query.
type mineOracle struct {
	sha       string
	answer    []rules.Rule
	serialSec float64
}

func (e *mineEnv) oracle() (*mineOracle, error) {
	var src itemset.Source = e.data
	if !e.wide {
		store, err := txstore.Open(e.dir)
		if err != nil {
			return nil, err
		}
		src = store
	}
	t0 := time.Now()
	res, err := apriori.MineSource(src, apriori.Params{MinSupport: e.minsup, Engine: "bitset"})
	if err != nil {
		return nil, err
	}
	o := &mineOracle{sha: resultSHA(res), serialSec: time.Since(t0).Seconds()}
	if !e.wide {
		rs, err := rules.Generate(res, rules.Params{MinConfidence: minConfidence})
		if err != nil {
			return nil, err
		}
		o.answer = serve.NewIndex(rs, serve.Options{}).Recommend(itemset.New(e.probe...), topK)
	}
	return o, nil
}

// checkOp holds one operation's result against the oracle, in a span of its
// own under parent when the run is traced.
func (e *mineEnv) checkOp(r *run, parent int, what string, out *mineOut, orc *mineOracle) {
	var sha string
	r.rec.timed(parent, "oracle.sha256", func(int) { sha = resultSHA(out.rep.Result) })
	ok := sha == orc.sha && (e.wide || sameRules(out.answer, orc.answer))
	r.op(ok, "%s: result %s… differs from the serial miner's %s… (or the first answer differs)", what, sha[:12], orc.sha[:12])
}

func runMine(r *run, wide bool) error {
	env, err := timedSetups(r, func() (*mineEnv, error) { return setupMine(r, wide) }, (*mineEnv).close)
	if err != nil {
		return err
	}
	defer env.close()
	orc, err := env.oracle()
	if err != nil {
		return err
	}
	if r.rec != nil {
		return env.trace(r, orc)
	}

	// Repeat the operation for the run's seconds.  The collector runs
	// between repetitions and is left alone during them.
	var wallMs, allocKB []float64
	var m0, m1 runtime.MemStats
	for start := time.Now(); len(wallMs) < 3 || time.Since(start).Seconds() < r.seconds; {
		runtime.GC()
		runtime.ReadMemStats(&m0)
		out, err := env.op(nil, 0)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return err
		}
		wallMs = append(wallMs, out.wall.Seconds()*1e3)
		allocKB = append(allocKB, float64(m1.TotalAlloc-m0.TotalAlloc)/1e3)
		env.checkOp(r, 0, fmt.Sprintf("repetition %d", len(wallMs)), out, orc)
	}
	sorted := sortedCopy(wallMs)
	r.set("op_p50_ms", obsv.Quantile(sorted, 0.5))
	r.set("throughput_per_s", float64(env.src.p.NumTransactions)/(obsv.Quantile(sorted, 0.5)/1e3))
	r.set("alloc_kb_per_op", median(allocKB))
	fmt.Fprintf(os.Stderr, "bench: %s: %d timed repetitions after 1 warm-up\n", r.workload, len(wallMs))
	return nil
}

// trace is the traced run: the three formulations side by side, the numbers
// the public Report carries, and a replay of the level-wise pipeline through
// the layers' exported functions with a span around every call.
func (e *mineEnv) trace(r *run, orc *mineOracle) error {
	rec := r.rec
	root := rec.begin(0, "trace")
	defer rec.end(root)
	n := e.src.p.NumTransactions

	var store *txstore.Store
	if !e.wide {
		openWall := rec.timed(root, "txstore.Open", func(int) { store, _ = txstore.Open(e.dir) })
		if store == nil {
			return fmt.Errorf("cannot reopen %s", e.dir)
		}
		r.set("txstore.open_s", openWall.Seconds())
	}

	// The three formulations at the workload's processors, engine and backend.
	reports := map[parapriori.Algorithm]*parapriori.Report{}
	walls := map[parapriori.Algorithm]time.Duration{}
	for _, algo := range []parapriori.Algorithm{parapriori.CD, parapriori.IDD, parapriori.HD} {
		var rep *parapriori.Report
		var err error
		walls[algo] = rec.timed(root, "core."+string(algo), func(int) { rep, err = e.mine(algo, e.data, store) })
		if err != nil {
			return err
		}
		reports[algo] = rep
		e.checkOp(r, root, string(algo), &mineOut{rep: rep, answer: orc.answer}, orc)
		r.set("core."+string(algo)+".wall_s", walls[algo].Seconds())
		r.set("core."+string(algo)+".virtual_s", rep.ResponseTime)
	}
	if e.wide && !r.sc.smoke {
		// Figure 10: with a large candidate set HD ≤ IDD < CD.
		hd, idd, cd := reports[parapriori.HD].ResponseTime, reports[parapriori.IDD].ResponseTime, reports[parapriori.CD].ResponseTime
		r.check(hd <= idd && idd < cd, "virtual response times hd %.4f ≤ idd %.4f < cd %.4f do not hold", hd, idd, cd)
	}

	main := reports[e.algo]
	r.set("core.virtual_response_s", main.ResponseTime)
	r.set("core.mine_wall_s", walls[e.algo].Seconds())
	r.set("core.txn_per_s", float64(n)/walls[e.algo].Seconds())
	r.set("cluster.compute_s", main.Total.ComputeTime)
	r.set("cluster.idle_s", main.Total.IdleTime)
	r.set("cluster.send_s", main.Total.SendTime)
	r.set("cluster.io_s", main.Total.IOTime)
	r.set("cluster.bytes_sent", float64(main.Total.BytesSent))
	r.set("cluster.messages_sent", float64(main.Total.MessagesSent))
	for _, phase := range []string{"subset", "tree build", "candidate gen", "partition", "filter", "reduction", "scan", "decode"} {
		r.set("core.phase."+strings.ReplaceAll(phase, " ", "_")+"_s", main.Total.Phases[phase])
	}
	var timeImb, candImb float64
	var checks, visits, traversals, treeTxns int64
	for _, p := range main.Passes {
		timeImb, candImb = max(timeImb, p.TimeImbalance), max(candImb, p.CandImbalance)
		checks, visits = checks+p.Tree.LeafChecks, visits+p.Tree.LeafVisits
		traversals, treeTxns = traversals+p.Tree.Traversals, treeTxns+p.Tree.Transactions
	}
	r.set("core.time_imbalance_max", timeImb)
	r.set("core.cand_imbalance_max", candImb)
	if e.wide {
		r.set("hashtree.leaf_checks_per_txn", float64(checks)/float64(treeTxns))
		r.set("hashtree.leaf_visits_per_txn", float64(visits)/float64(treeTxns))
		r.set("hashtree.traversals", float64(traversals))
		r.set("core.inmem.wall_s", walls[e.algo].Seconds())
	} else {
		r.set("core.ooc.wall_s", walls[e.algo].Seconds())
		r.set("core.ooc.read_blocks", float64(main.Read.Blocks))
		r.set("core.ooc.read_bytes", float64(main.Read.Bytes))
		r.set("core.ooc.read_stalls", float64(main.Read.Stalls))
		r.set("core.ooc.decode_virtual_s", main.Read.DecodeSeconds)
		r.set("txstore.crc_retries", float64(main.Read.CRCRetries))
		// Read before anything below makes the dataset resident.
		r.set("core.ooc.peak_rss_mb", peakRSSMB())
		if err := e.traceStore(r, root, store, orc); err != nil {
			return err
		}
		r.set("apriori.serial_mine_s", orc.serialSec)
	}

	var src itemset.Source = e.data
	if !e.wide {
		src = store
	}
	if err := e.replay(r, root, src, orc); err != nil {
		return err
	}
	r.set("datagen.gen_us_per_txn", genMicrosPerTxn(rec, root, e.src))

	// The timed operation, with and without spans around its steps.
	var plain, traced []float64
	for i := 0; i < 3; i++ {
		for _, tr := range []*recorder{nil, rec} {
			rec.timed(root, "runtime.GC", func(int) { runtime.GC() })
			var out *mineOut
			var err error
			// One span around either kind, so that the untraced repetitions
			// are no gap in the trace; the traced one has its steps inside.
			rec.timed(root, "op", func(id int) { out, err = e.op(tr, id) })
			if err != nil {
				return err
			}
			e.checkOp(r, root, "overhead repetition", out, orc)
			if tr == nil {
				plain = append(plain, out.wall.Seconds())
			} else {
				traced = append(traced, out.wall.Seconds())
				if !e.wide && i == 0 {
					r.set("rules.generate_s", out.rulesWall.Seconds())
					r.set("rules.count", float64(out.nRules))
					r.set("serve.index_build_s", out.indexWall.Seconds())
					r.set("serve.publish_us", out.publishWall.Seconds()*1e6)
				}
			}
		}
	}
	r.set("bench.trace_overhead_share", (median(traced)-median(plain))/median(plain))
	return nil
}

// traceStore measures the store from outside: a fresh spill of the same
// generated stream, one single-threaded scan (read + checksum + decode), the
// manifest's exact counts, and the same mining run over the materialized
// dataset, which isolates what the out-of-core backend itself costs.
func (e *mineEnv) traceStore(r *run, parent int, store *txstore.Store, orc *mineOracle) error {
	rec := r.rec
	dir := e.dir + "-respill"
	defer os.RemoveAll(dir)
	var man *txstore.Manifest
	var err error
	spill := rec.timed(parent, "txstore.Spill", func(int) {
		man, err = txstore.Spill(dir, e.src, txstore.Options{Partitions: oocPartitions})
	})
	if err != nil {
		return err
	}
	var bytes, blocks int64
	for _, p := range man.Partitions {
		bytes, blocks = bytes+p.Bytes, blocks+int64(p.Blocks)
	}
	// The spill time includes generating the stream; the generator's own
	// share is datagen.gen_us_per_txn.
	r.set("txstore.spill_mb_per_s", float64(bytes)/1e6/spill.Seconds())
	r.set("txstore.bytes_per_txn", float64(bytes)/float64(man.Transactions))
	r.set("txstore.blocks", float64(blocks))

	var resident *itemset.Dataset
	scan := rec.timed(parent, "txstore.Blocks", func(int) {
		err = store.Blocks(func([]itemset.Transaction) error { return nil })
	})
	if err != nil {
		return err
	}
	r.set("txstore.scan_s", scan.Seconds())
	rec.timed(parent, "itemset.Materialize", func(int) { resident, err = itemset.Materialize(store) })
	if err != nil {
		return err
	}
	var rep *parapriori.Report
	inmem := rec.timed(parent, "core.cd.inmem", func(int) { rep, err = e.mine(e.algo, resident, nil) })
	if err != nil {
		return err
	}
	e.checkOp(r, parent, "in-memory backend", &mineOut{rep: rep, answer: orc.answer}, orc)
	r.set("core.inmem.wall_s", inmem.Seconds())
	return nil
}

var errStop = errors.New("enough transactions")

// head copies the first n transactions of a source (a store reuses its
// blocks between callbacks, so the items are copied too).
func head(src itemset.Source, n int) ([]itemset.Transaction, error) {
	var out []itemset.Transaction
	err := src.Blocks(func(blk []itemset.Transaction) error {
		for _, t := range blk {
			if len(out) == n {
				return errStop
			}
			out = append(out, itemset.Transaction{ID: t.ID, Items: append(itemset.Itemset(nil), t.Items...)})
		}
		return nil
	})
	if err != nil && !errors.Is(err, errStop) {
		return nil, err
	}
	return out, nil
}

var engineNames = []string{"hashtree", "trie", "bitset"}

// modelSeconds is what the T3E cost model charges for counting work.
func modelSeconds(s countengine.Stats) float64 {
	m := cluster.T3E()
	return float64(s.NodeSteps)*m.TTravers + float64(s.ArraySteps)*m.TArray + float64(s.CandChecks)*m.TCheck +
		float64(s.WordOps)*m.TWord + float64(s.ItemTouches)*m.TItem
}

// dominantOps is the operation class an engine spends its counting in.
func dominantOps(engine string, s countengine.Stats) int64 {
	switch engine {
	case "hashtree":
		return s.NodeSteps + s.CandChecks
	case "trie":
		return s.ArraySteps
	}
	return s.WordOps
}

var containsSink int

// replay runs the level-wise pipeline itself, level by level, through the
// layers' exported functions.  Every engine counts the same sample of
// sc.traceTxns transactions in every pass (a full hash-tree pass over the
// wide candidate set takes many seconds) and the three count vectors must be
// equal element by element; the levels come from a full bitset count, and
// must hash to the SHA-256 of the timed operation's result.
func (e *mineEnv) replay(r *run, parent int, src itemset.Source, orc *mineOracle) error {
	rec := r.rec
	id := rec.begin(parent, "replay")
	defer rec.end(id)
	info := src.Info()
	minCount := apriori.Params{MinSupport: e.minsup}.MinCount(info.NumTxns)
	cfg := countengine.Config{NumItems: info.NumItems}

	var (
		f1  []apriori.Frequent
		err error
	)
	first := rec.timed(id, "apriori.FirstPassSource", func(int) { f1, _, err = apriori.FirstPassSource(src, minCount) })
	if err != nil {
		return err
	}
	r.set("apriori.first_pass_s", first.Seconds())
	sample, err := head(src, r.sc.traceTxns)
	if err != nil {
		return err
	}

	var (
		genWall, binWall time.Duration
		genAllocs        uint64
		candidates       int
		imbalance        float64
		build, count     [3]time.Duration
		mem              [3]int
		stats            [3]countengine.Stats
		sampled          int
		ms0, ms1         runtime.MemStats
	)
	res := &apriori.Result{N: info.NumTxns, MinCount: minCount, Levels: [][]apriori.Frequent{f1}}
	prev := f1
	for k := 2; len(prev) > 0; k++ {
		pass := rec.begin(id, "pass k="+strconv.Itoa(k))
		sets := make([]itemset.Itemset, len(prev))
		for i, f := range prev {
			sets[i] = f.Items
		}
		var cands []itemset.Itemset
		runtime.ReadMemStats(&ms0)
		genWall += rec.timed(pass, "apriori.Gen", func(int) { cands = apriori.Gen(sets) })
		runtime.ReadMemStats(&ms1)
		genAllocs += ms1.Mallocs - ms0.Mallocs
		if len(cands) == 0 {
			rec.end(pass)
			break
		}
		candidates += len(cands)
		binWall += rec.timed(pass, "partition.BinPack", func(int) {
			imbalance = max(imbalance, partition.BinPack(cands, e.procs, 0).Imbalance())
		})
		if k == 2 {
			// Fixed candidate/transaction pairs from C₂ for the subset test.
			nc, nt := min(len(cands), 1024), min(len(sample), 256)
			d := rec.timed(pass, "itemset.ContainsAll", func(int) {
				for _, t := range sample[:nt] {
					for _, c := range cands[:nc] {
						if t.Items.ContainsAll(c) {
							containsSink++
						}
					}
				}
			})
			r.set("itemset.contains_all_ns", float64(d.Nanoseconds())/float64(nc*nt))
		}

		var vectors [3][]int64
		for i, name := range engineNames {
			b, err := countengine.New(name, cfg)
			if err != nil {
				return err
			}
			var eng countengine.Engine
			build[i] += rec.timed(pass, "countengine."+name+".NewPass", func(int) { eng, err = b.NewPass(k, cands) })
			if err != nil {
				return err
			}
			count[i] += rec.timed(pass, "countengine."+name+".CountBlock", func(int) { eng.CountBlock(sample, nil) })
			count[i] += rec.timed(pass, "countengine."+name+".Counts", func(int) { vectors[i] = eng.Counts() })
			mem[i] += eng.MemoryBytes()
			stats[i].Add(eng.Stats())
		}
		sampled += len(sample)
		for i := 1; i < len(vectors); i++ {
			same := len(vectors[i]) == len(vectors[0])
			for j := 0; same && j < len(vectors[0]); j++ {
				same = vectors[i][j] == vectors[0][j]
			}
			r.check(same, "pass %d: %s and %s count the sample differently", k, engineNames[i], engineNames[0])
		}

		b, err := countengine.New("bitset", cfg)
		if err != nil {
			return err
		}
		full, err := b.NewPass(k, cands)
		if err != nil {
			return err
		}
		var counts []int64
		rec.timed(pass, "replay.count", func(int) {
			err = src.Blocks(func(blk []itemset.Transaction) error { full.CountBlock(blk, nil); return nil })
			counts = full.Counts()
		})
		if err != nil {
			return err
		}
		level := make([]apriori.Frequent, len(cands))
		for i, c := range cands {
			level[i] = apriori.Frequent{Items: c, Count: counts[i]}
		}
		rec.timed(pass, "apriori.Prune", func(int) { prev = apriori.Prune(level, minCount) })
		res.Levels = append(res.Levels, prev)
		rec.end(pass)
	}
	sha := resultSHA(res)
	r.op(sha == orc.sha, "replay: levels hash to %s…, the serial miner's to %s…", sha[:12], orc.sha[:12])

	r.set("apriori.gen_s", genWall.Seconds())
	r.set("apriori.gen_allocs", float64(genAllocs))
	r.set("apriori.candidates", float64(candidates))
	r.set("partition.binpack_s", binWall.Seconds())
	r.set("partition.imbalance", imbalance)
	for i, name := range engineNames {
		p := "countengine." + name + "."
		r.set(p+"build_s", build[i].Seconds())
		r.set(p+"count_ns_per_txn", float64(count[i].Nanoseconds())/float64(sampled))
		r.set(p+"mem_mb", float64(mem[i])/1e6)
		r.set(p+"ops", float64(dominantOps(name, stats[i])))
		r.set(p+"host_over_model", count[i].Seconds()/modelSeconds(stats[i]))
	}
	return nil
}

// genMicrosPerTxn times one streaming pass of the generator alone.
func genMicrosPerTxn(rec *recorder, parent int, src stream) float64 {
	d := rec.timed(parent, "datagen.Generator.Next", func(int) {
		_ = src.Blocks(func([]itemset.Transaction) error { return nil }) // the parameters generated before
	})
	return d.Seconds() * 1e6 / float64(src.generated())
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM), 0 where
// /proc does not give it.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1e3
		}
	}
	return 0
}
