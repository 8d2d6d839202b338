package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"parapriori/internal/apriori"
	"parapriori/internal/datagen"
	"parapriori/internal/distserve"
	"parapriori/internal/itemset"
	"parapriori/internal/obsv"
	"parapriori/internal/rules"
	"parapriori/internal/serve"
)

// serveKind selects one of the three serving workloads.  They share the rule
// set (serial mining of T12.I4 over 300 items at 1 % support, confidence
// 0.5, some 32 K rules) and differ in the traffic:
//
//   - serve-miss: twice as many distinct baskets as the cache holds, cycled
//     in one order, so the LRU has always just evicted the basket that comes
//     next: every query scans the index, ranks and allocates, and the cache
//     only costs;
//   - serve-hot: Zipf(1.1) draws from a few hundred transactions against a
//     warm cache, so the scan is bypassed and canonicalisation, cache lookup,
//     result copy and the always-on recording are the whole cost;
//   - serve-churn: a replicated four-node fleet behind a router, read while a
//     writer publishes a perturbed rule set every second, each cut-over
//     emptying the node caches.
type serveKind int

const (
	serveMiss serveKind = iota
	serveHot
	serveChurn
)

// The open-loop rates are fixed, not derived from the seed or the machine.
var openRate = map[serveKind]float64{serveMiss: 1000, serveHot: 20000, serveChurn: 500}

const (
	serveMinsup   = 0.01
	warmupQueries = 512
	churnNodes    = 4
	zipfExponent  = 1.1
	// p99LimitUs is the latency limit of the rate ladder.
	p99LimitUs = 20000
)

var rateLadder = []float64{500, 1000, 2000, 4000}

// answer is what the load generator holds against the oracle.
type answer struct {
	digest uint64
	gen    uint64
	bad    bool // error, refusal or partial answer
	mixed  bool // the nodes answered from two generations (serve-churn)
}

// serveEnv is one set-up serving workload.
type serveEnv struct {
	kind   serveKind
	src    stream
	data   *itemset.Dataset
	v1, v2 []rules.Rule // v2: the perturbed set serve-churn alternates with
	idx    *serve.Index
	srv    *serve.Server      // serve-miss, serve-hot
	fleet  *distserve.Cluster // serve-churn
	// pool holds the workload's distinct baskets.  It is the same for every
	// seed: per-basket cost is heavy-tailed (a basket holding a popular
	// pattern fires hundreds of rules), so a pool drawn per seed moved the
	// medians by a quarter.  The seed decides the order they are asked in.
	pool []itemset.Itemset
	// order is the sequence of pool indices the load generator cycles
	// through: a shuffle of the pool (serve-miss) or Zipf draws with rank r
	// asking for pool[r] (serve-hot, serve-churn).
	order []int32
	// setup step times, for the traced run
	mineWall, rulesWall, indexWall, publishWall time.Duration

	// expect[g&1][i] digests what Index.Recommend answers to pool[i] over
	// the rule set of generation g: the single server stays at generation
	// 1, the fleet serves v1 at odd generations and v2 at even ones.
	expect [2][]uint64
	// next is the ordinal of the next query.  asked counts the replies held
	// against the oracle; refused (error, refusal or partial answer), wrong
	// and mixed (two generations in one answer: counted, not checked, since
	// it may rank rules of both) count what became of them.
	next                         int
	asked, refused, wrong, mixed int
	// rec, when set, gets a span per query under spanParent.
	rec        *recorder
	spanParent int
	// publishes counts fleet publishes: generation g serves v1 when g is
	// odd and v2 when it is even.
	publishes int
}

func (e *serveEnv) close() {
	if e.srv != nil {
		e.srv.Close()
	}
	if e.fleet != nil {
		e.fleet.Close()
	}
}

// basketID is the pool index of query i's basket.
func (e *serveEnv) basketID(i int) int { return int(e.order[i%len(e.order)]) }

// basketPool generates n baskets from the fixed generator.
func basketPool(n int) ([]itemset.Itemset, error) {
	g, err := datagen.New(narrowGen(n))
	if err != nil {
		return nil, err
	}
	pool := make([]itemset.Itemset, n)
	for i := range pool {
		pool[i] = g.Next().Items
	}
	return pool, nil
}

// perturb derives the next day's rules from rs: one antecedent group in ten
// is dropped and one in ten has its confidences nudged, so that a delta
// publish has something to ship and most groups stay byte-identical.
func perturb(rs []rules.Rule) []rules.Rule {
	out := make([]rules.Rule, 0, len(rs))
	for _, r := range rs {
		h := fnv.New64a()
		h.Write([]byte(r.Antecedent.Key()))
		switch h.Sum64() % 10 {
		case 0:
		case 1:
			r.Confidence *= 0.97
			out = append(out, r)
		default:
			out = append(out, r)
		}
	}
	return out
}

func setupServe(r *run, kind serveKind) (*serveEnv, error) {
	rec := r.rec
	sid := rec.begin(0, "setup")
	defer rec.end(sid)
	e := &serveEnv{kind: kind, src: newStream(narrowGen(r.sc.serveN), r.seed)}
	var err error
	rec.timed(sid, "datagen.Generator.Next", func(int) { e.data, err = itemset.Materialize(e.src) })
	if err != nil {
		return nil, err
	}
	if e.pool, err = basketPool(r.sc.pool[kind]); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(r.seed))
	if kind == serveMiss {
		e.order = make([]int32, len(e.pool))
		for i, j := range rng.Perm(len(e.pool)) {
			e.order[i] = int32(j)
		}
	} else {
		z := rand.NewZipf(rng, zipfExponent, 1, uint64(len(e.pool)-1))
		e.order = make([]int32, 1<<16)
		for i := range e.order {
			e.order[i] = int32(z.Uint64())
		}
	}
	var mined *apriori.Result
	e.mineWall = rec.timed(sid, "apriori.Mine", func(int) {
		mined, err = apriori.Mine(e.data, apriori.Params{MinSupport: serveMinsup, Engine: "bitset"})
	})
	if err != nil {
		return nil, err
	}
	e.rulesWall = rec.timed(sid, "rules.Generate", func(int) {
		e.v1, err = rules.Generate(mined, rules.Params{MinConfidence: minConfidence})
	})
	if err != nil {
		return nil, err
	}
	if len(e.v1) == 0 {
		return nil, fmt.Errorf("no rules at support %g, confidence %g", serveMinsup, minConfidence)
	}

	if kind == serveChurn {
		e.v2 = perturb(e.v1)
		e.fleet, err = distserve.NewCluster(churnNodes, distserve.Options{Shards: 64, Replicas: 2})
		if err != nil {
			return nil, err
		}
		e.publishWall = rec.timed(sid, "distserve.Router.Publish.full", func(int) { _, err = e.publish(true) })
		if err != nil {
			e.close()
			return nil, err
		}
	} else {
		e.indexWall = rec.timed(sid, "serve.NewIndex", func(int) { e.idx = serve.NewIndex(e.v1, serve.Options{}) })
		e.publishWall = rec.timed(sid, "serve.Publish", func(int) {
			e.srv = serve.NewServer(serve.Options{})
			e.srv.Publish(e.idx)
		})
	}
	// Warm up: a pass over the head of the pool (serve-hot: all of it, which
	// fills the cache), or, so that serve-miss starts on a cache without its
	// baskets, over as many transactions from the far end of the dataset.
	rec.timed(sid, "warmup", func(int) {
		n := len(e.data.Transactions)
		for i, b := range e.pool[:min(len(e.pool), warmupQueries)] {
			if kind == serveMiss {
				b = e.data.Transactions[n-1-i%n].Items
			}
			e.ask(b)
		}
	})
	return e, nil
}

// publish installs the rule set of the next generation on the fleet.
func (e *serveEnv) publish(full bool) (distserve.PublishStats, error) {
	next := e.v1
	if e.publishes%2 == 1 {
		next = e.v2
	}
	st, err := e.fleet.Router.Publish(next, full)
	if err == nil {
		e.publishes++
	}
	return st, err
}

// answerDigest folds a ranked answer into 64 bits: every rule's items, count
// and confidence, in order.
func answerDigest(rs []rules.Rule) uint64 {
	const prime = 0x100000001b3
	h := uint64(len(rs)) + 0x9e3779b97f4a7c15
	for i := range rs {
		r := &rs[i]
		h = (h ^ uint64(r.Count)) * prime
		h = (h ^ math.Float64bits(r.Confidence)) * prime
		h = (h ^ uint64(len(r.Antecedent))) * prime
		for _, it := range r.Antecedent {
			h = (h ^ uint64(it)) * prime
		}
		for _, it := range r.Consequent {
			h = (h ^ uint64(it)) * prime
		}
	}
	return h
}

// ask sends one basket through the workload's front door.
func (e *serveEnv) ask(basket []itemset.Item) answer {
	if e.kind == serveChurn {
		res, err := e.fleet.Router.Recommend(basket, topK)
		if err != nil || res.Partial {
			return answer{bad: true}
		}
		return answer{digest: answerDigest(res.Rules), gen: res.Generation, mixed: res.Mixed}
	}
	out, err := e.srv.Recommend(basket, topK)
	if err != nil {
		return answer{bad: true}
	}
	return answer{digest: answerDigest(out), gen: 1}
}

// prepareOracle computes, outside every timed section, the digest of
// Index.Recommend's answer to each pool basket under each rule set.
func (e *serveEnv) prepareOracle() {
	byParity := [2]*serve.Index{e.idx, e.idx}
	if e.kind == serveChurn {
		byParity = [2]*serve.Index{serve.NewIndex(e.v2, serve.Options{}), serve.NewIndex(e.v1, serve.Options{})}
	}
	for parity, ix := range byParity {
		e.expect[parity] = make([]uint64, len(e.pool))
		for i, b := range e.pool {
			e.expect[parity][i] = answerDigest(ix.Recommend(b, topK))
		}
	}
}

// issue sends the next query of the workload's traffic and holds the reply
// against the oracle.
func (e *serveEnv) issue() {
	id := e.basketID(e.next)
	e.next++
	var a answer
	if e.rec == nil {
		a = e.ask(e.pool[id])
	} else {
		span := e.rec.begin(e.spanParent, "recommend")
		a = e.ask(e.pool[id])
		e.rec.end(span)
	}
	e.asked++
	switch {
	case a.bad:
		e.refused++
	case a.mixed:
		e.mixed++
	case a.digest != e.expect[a.gen&1][id]:
		e.wrong++
	}
}

// report hands the oracle's tally to the run.
func (e *serveEnv) report(r *run) {
	r.attempted += e.asked
	r.failed += e.refused + e.wrong
	r.check(e.refused == 0, "%d queries met an error, a refusal or a partial answer", e.refused)
	r.check(e.wrong == 0, "%d answers differ from Index.Recommend over the rule set of their generation", e.wrong)
}

// writer publishes to the fleet on a fixed period until halted.  Its spans
// form a tree of their own: it runs beside the reader, not under it.
type writer struct {
	stop, done chan struct{}
	wallSec    []float64
	err        error
}

func (e *serveEnv) startWriter(rec *recorder, every time.Duration) *writer {
	w := &writer{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		root := rec.begin(0, "writer")
		defer rec.end(root)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
				var err error
				d := rec.timed(root, "distserve.Router.Publish.delta", func(int) { _, err = e.publish(false) })
				if err != nil && w.err == nil {
					w.err = err
				}
				w.wallSec = append(w.wallSec, d.Seconds())
			}
		}
	}()
	return w
}

// halt stops the writer and waits until it has returned.
func (w *writer) halt() {
	close(w.stop)
	<-w.done
}

// slice is the closed loop's slice: a twentieth of the run, or under churn
// the publish period, so that every slice holds one cut-over and the median
// slice is not a coin toss between slices with one and slices without.
func (e *serveEnv) slice(r *run) time.Duration {
	if e.kind == serveChurn {
		return e.publishPeriod(r)
	}
	return seconds(r.seconds / 20)
}

func (e *serveEnv) publishPeriod(r *run) time.Duration {
	if r.sc.smoke {
		return 20 * time.Millisecond
	}
	return time.Second
}

// clockEvery is how many requests the closed loop sends per timed one.  A
// cache hit takes about a microsecond, so serve-hot times one in sixteen;
// serve-miss times all, since a stride would keep sampling the same few
// positions of its cycle.
func (e *serveEnv) clockEvery() int {
	if e.kind == serveHot {
		return 16
	}
	return 1
}

// openDuration is how long the open loop runs given d seconds.  serve-miss
// asks whole cycles of its pool when at least one fits: its latencies have
// two modes with the median between them, and the median moved by a quarter
// with the share of heavy baskets among those a partial cycle happened to ask.
func (e *serveEnv) openDuration(d float64) time.Duration {
	if cycle := float64(len(e.order)) / openRate[e.kind]; e.kind == serveMiss && d >= cycle {
		d = math.Floor(d/cycle) * cycle
	}
	return seconds(d)
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func runServe(r *run, kind serveKind) error {
	e, err := timedSetups(r, func() (*serveEnv, error) { return setupServe(r, kind) }, (*serveEnv).close)
	if err != nil {
		return err
	}
	defer e.close()
	e.prepareOracle()
	if r.rec != nil {
		return e.trace(r)
	}

	// One client in a closed loop for the run's seconds.  Open-loop
	// latencies did not repeat within a tenth from run to run (an idle
	// process pays thread wake-ups that a busy one does not, and the median
	// under churn sits between the hit and the miss mode), so they are the
	// traced run's loadgen.* metrics.
	var w *writer
	if kind == serveChurn {
		w = e.startWriter(nil, e.publishPeriod(r))
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	st := closedLoop(seconds(r.seconds), e.slice(r), 0, e.clockEvery(), e.issue)
	runtime.ReadMemStats(&m1)
	if w != nil {
		w.halt()
		r.check(w.err == nil, "publish failed: %v", w.err)
		r.check(len(w.wallSec) > 0, "the writer never published")
	}
	e.report(r)

	lat := st.latUs
	if cycle := len(e.order); kind == serveMiss && len(lat) >= cycle {
		lat = lat[:len(lat)-len(lat)%cycle] // whole cycles, as in openDuration
	}
	r.set("op_p50_ms", median(lat)/1e3)
	r.set("throughput_per_s", st.perSecond())
	r.set("alloc_kb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/1e3/float64(st.sent))
	fmt.Fprintf(os.Stderr, "bench: %s: closed loop, %d queries, %d mixed answers\n", r.workload, st.sent, e.mixed)
	return nil
}

// layerBaskets are the distinct baskets the fixed-count layer measurements
// use on every serving workload: the first transactions of the dataset.
func (e *serveEnv) layerBaskets(r *run) []itemset.Transaction {
	return e.data.Transactions[:min(r.sc.layerQueries, len(e.data.Transactions))]
}

// trace is the traced run of a serving workload.
func (e *serveEnv) trace(r *run) error {
	rec := r.rec
	root := rec.begin(0, "trace")
	defer rec.end(root)
	r.set("apriori.serial_mine_s", e.mineWall.Seconds())
	r.set("rules.generate_s", e.rulesWall.Seconds())
	r.set("rules.count", float64(len(e.v1)))
	r.set("datagen.gen_us_per_txn", genMicrosPerTxn(rec, root, e.src))

	const loops = 200000
	flight := obsv.NewFlight(obsv.ClockReal, 0)
	d := rec.timed(root, "obsv.Flight.Record", func(int) {
		for i := 0; i < loops; i++ {
			t := float64(i) * 1e-6
			flight.Record(obsv.Span{Name: "recommend", Cat: obsv.CatRequest, Start: t, End: t + 1e-6})
		}
	})
	r.set("obsv.flight.record_ns", float64(d.Nanoseconds())/loops)

	if e.kind == serveChurn {
		if err := e.traceRouter(r, root); err != nil {
			return err
		}
	} else {
		r.set("serve.index_build_s", e.indexWall.Seconds())
		r.set("serve.publish_us", e.publishWall.Seconds()*1e6)
		var hist serve.Hist
		d = rec.timed(root, "serve.Hist.Observe", func(int) {
			for i := 0; i < loops; i++ {
				hist.Observe(time.Duration(i%4096) * time.Microsecond)
			}
		})
		r.set("serve.hist.observe_ns", float64(d.Nanoseconds())/loops)
		e.traceIndex(r, root)
		if err := e.traceServer(r, root); err != nil {
			return err
		}
	}
	return e.traceLoad(r, root)
}

// traceIndex measures the bare index: scan + rank per query, what ranking
// alone costs, and how many of the rules it collects and sorts it returns.
func (e *serveEnv) traceIndex(r *run, parent int) {
	rec := r.rec
	id := rec.begin(parent, "index")
	defer rec.end(id)
	baskets := e.layerBaskets(r)
	var recUs, rankUs []float64
	var matches, returned int
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, t := range baskets {
		var out []rules.Rule
		d := rec.timed(id, "serve.Index.Recommend", func(int) { out = e.idx.Recommend(t.Items, topK) })
		recUs = append(recUs, d.Seconds()*1e6)
		r.op(len(out) <= topK, "Index.Recommend returned %d rules for K=%d", len(out), topK)
	}
	runtime.ReadMemStats(&m1)
	r.set("serve.alloc_bytes_per_query", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(len(baskets)))
	shuffle := rand.New(rand.NewSource(r.seed))
	for _, t := range baskets {
		all := e.idx.Recommend(t.Items, -1) // every firing rule, ranked
		matches += len(all)
		returned += min(len(all), topK)
		shuffle.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		d := rec.timed(id, "serve.RankTruncate", func(int) { serve.RankTruncate(all, topK) })
		rankUs = append(rankUs, d.Seconds()*1e6)
	}
	r.set("serve.index.recommend_us", median(recUs))
	r.set("serve.rank_truncate_us", median(rankUs))
	r.set("serve.matches_per_query", float64(matches)/float64(len(baskets)))
	r.set("serve.useful_ratio", float64(returned)/float64(max(matches, 1)))
}

// traceServer measures the server around the index: a miss and a hit of the
// same distinct baskets, the worker-pool path, and one keep-alive HTTP
// connection over loopback.
func (e *serveEnv) traceServer(r *run, parent int) error {
	rec := r.rec
	id := rec.begin(parent, "server")
	defer rec.end(id)
	baskets := e.layerBaskets(r)
	pass := func(srv *serve.Server, name string) float64 {
		us := make([]float64, 0, len(baskets))
		for _, t := range baskets {
			var out []rules.Rule
			var err error
			d := rec.timed(id, name, func(int) { out, err = srv.Recommend(t.Items, topK) })
			us = append(us, d.Seconds()*1e6)
			r.op(err == nil && sameRules(out, e.idx.Recommend(t.Items, topK)), "%s: answer differs from Index.Recommend", name)
		}
		return median(us)
	}
	inline := serve.NewServer(serve.Options{})
	defer inline.Close()
	inline.Publish(e.idx)
	r.set("serve.server.miss_us", pass(inline, "serve.Server.Recommend.miss"))
	r.set("serve.server.hit_us", pass(inline, "serve.Server.Recommend.hit"))

	pooled := serve.NewServer(serve.Options{Workers: runtime.NumCPU()})
	defer pooled.Close()
	pooled.Publish(e.idx)
	r.set("serve.pooled.miss_us", pass(pooled, "serve.Server.Recommend.pooled"))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: inline.Handler(nil)}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	us := make([]float64, 0, len(baskets))
	for _, t := range baskets {
		items := make([]string, len(t.Items))
		for i, it := range t.Items {
			items[i] = strconv.Itoa(int(it))
		}
		url := "http://" + ln.Addr().String() + "/recommend?k=" + strconv.Itoa(topK) + "&items=" + strings.Join(items, ",")
		var status int
		d := rec.timed(id, "serve.Handler.roundtrip", func(int) {
			resp, err := client.Get(url)
			if err != nil {
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body) // drained so that the connection is reused
			resp.Body.Close()
			status = resp.StatusCode
		})
		us = append(us, d.Seconds()*1e6)
		r.op(status == http.StatusOK, "GET /recommend: status %d", status)
	}
	r.set("serve.http.roundtrip_us", median(us))
	client.CloseIdleConnections()
	err = hs.Shutdown(context.Background())
	<-served
	return err
}

// traceRouter measures the fleet with no reader beside it: delta and full
// publishes, and the router's fan-out and merge per query.
func (e *serveEnv) traceRouter(r *run, parent int) error {
	rec := r.rec
	id := rec.begin(parent, "router")
	defer rec.end(id)
	var deltaSec []float64
	for i := 0; i < 4; i++ {
		var st distserve.PublishStats
		var err error
		d := rec.timed(id, "distserve.Router.Publish.delta", func(int) { st, err = e.publish(false) })
		if err != nil {
			return err
		}
		deltaSec = append(deltaSec, d.Seconds())
		if i == 0 {
			r.set("distserve.publish.delta_bytes", float64(st.Bytes))
		}
	}
	var st distserve.PublishStats
	var err error
	d := rec.timed(id, "distserve.Router.Publish.full", func(int) { st, err = e.publish(true) })
	if err != nil {
		return err
	}
	r.set("distserve.publish.delta_s", median(deltaSec))
	r.set("distserve.publish.full_s", d.Seconds())
	r.set("distserve.publish.full_bytes", float64(st.Bytes))

	var us []float64
	for _, t := range e.layerBaskets(r) {
		d := rec.timed(id, "distserve.Router.Recommend", func(int) { e.ask(t.Items) })
		us = append(us, d.Seconds()*1e6)
	}
	r.set("distserve.router.recommend_us", median(us))
	return nil
}

// traceLoad runs the workload's traffic with a span per query: a closed loop
// with and without spans (the tracing overhead), the open loop at the
// workload's rate, and the ladder of fixed rates.
func (e *serveEnv) traceLoad(r *run, parent int) error {
	rec := r.rec
	id := rec.begin(parent, "load")
	defer rec.end(id)
	// Eight short closed-loop stretches, plain and traced in the order
	// p t t p p t t p so that drift falls on both sides, each side's rate the
	// median of its four: a stretch of a sub-microsecond hit path lasts
	// milliseconds, and one collector cycle or host stall would decide a sum.
	// Every stretch asks the same queries from the start of the order
	// (per-basket cost is heavy-tailed), and the writer starts afterwards: a
	// cut-over would land on one side.
	const stretches, tracedQueries = 8, 40000 // the latter bounds the spans a hit path would record
	phase := seconds(r.seconds * 0.1)
	var rates [2][]float64 // plain, traced
	for i := 0; i < stretches; i++ {
		side, tr := (i+1)/2%2, (*recorder)(nil)
		if side == 1 {
			tr = rec
		}
		e.next = 0
		rec.timed(id, "runtime.GC", func(int) { runtime.GC() }) // every stretch starts on the same heap
		e.rec, e.spanParent = tr, tr.begin(id, "closed loop")
		st := closedLoop(2*phase/stretches, phase, tracedQueries/(stretches/2), e.clockEvery(), e.issue)
		tr.end(e.spanParent)
		rates[side] = append(rates[side], st.perSecond())
	}
	r.set("bench.trace_overhead_share", median(rates[0])/median(rates[1])-1)

	var w *writer
	if e.kind == serveChurn {
		w = e.startWriter(rec, e.publishPeriod(r))
	}
	e.rec, e.spanParent = rec, rec.begin(id, "open loop")
	b := openLoop(openRate[e.kind], e.openDuration(r.seconds*0.3), e.issue)
	rec.end(e.spanParent)
	e.rec = nil
	lat := sortedCopy(b.latUs)
	r.set("loadgen.sent", float64(b.sent))
	r.set("loadgen.late_max_ms", b.lateMaxMs)
	r.set("loadgen.backlog_max", float64(b.backlogMax))
	r.set("loadgen.p50_us", obsv.Quantile(lat, 0.5))
	r.set("loadgen.p99_us", obsv.Quantile(lat, 0.99))
	r.set("loadgen.p999_us", obsv.Quantile(lat, 0.999))

	// The highest fixed rate that keeps p99 within the limit without the
	// generator falling behind by more than the limit.
	best := 0.0
	for _, rate := range rateLadder {
		var st loadStats
		rec.timed(id, "ladder "+strconv.Itoa(int(rate))+"/s", func(int) { st = openLoop(rate, phase, e.issue) })
		if obsv.Quantile(sortedCopy(st.latUs), 0.99) <= p99LimitUs && st.lateMaxMs*1e3 <= p99LimitUs {
			best = rate
		}
	}
	r.set("loadgen.max_rate_ok_qps", best)

	if w != nil {
		w.halt()
		r.check(w.err == nil, "publish failed: %v", w.err)
	}
	e.report(r)
	if e.kind == serveChurn {
		m := e.fleet.Router.Metrics()
		r.set("distserve.fanout_per_query", m.FanoutPerQuery)
		r.set("distserve.hedges", float64(m.Hedges))
		r.set("distserve.retries", float64(m.Retries))
		r.set("distserve.refreshes", float64(m.Refreshes))
		r.set("distserve.mixed", float64(e.mixed))
		r.set("distserve.partial", float64(m.PartialResults))
		r.check(m.PartialResults == 0, "%d partial answers with every node up", m.PartialResults)
	} else {
		r.set("serve.cache_hit_rate", e.srv.Metrics().CacheHitRate)
	}
	return nil
}
