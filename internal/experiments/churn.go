package experiments

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sync/atomic"
	"time"

	"parapriori/internal/apriori"
	"parapriori/internal/distserve"
	"parapriori/internal/itemset"
	"parapriori/internal/rules"
	"parapriori/internal/serve"
)

// Churn measures what replication buys the serving tier under failures: the
// same 3-node fleet is run at R=1 and R=2 while a closed-loop query stream
// is in flight, and the driver (a) kills and restores each node in turn and
// (b) injects a straggler delay on the preferred replica.  Per R it reports
//
//   - partial answers: queries that found a touched shard with no
//     reachable replica.  At R=1 every kill window produces them; at R=2
//     the survivor copy of every shard must keep the count at exactly 0;
//   - the failover machinery's work (retries, hedges, probes);
//   - the tail of the straggler phase: at R=1 a query has no alternative
//     but to wait out the delay, at R=2 the hedge races a replica and the
//     tail stays far below it — the "measurably flatter p99";
//   - the result hash over a fixed probe set on the healed fleet, which
//     must be identical across runs AND across R values: replication may
//     never change an answer, only availability.
//
// Timing columns are wall-clock and not reproducible; the partials floor,
// the zero at R=2 and the hashes are.
func Churn(c Config) (*Result, error) {
	c = c.withDefaults()
	n := c.scaled(2000)
	const minsup = 0.01
	const minconf = 0.5
	const topK = 10
	stall := 25 * time.Millisecond
	killProbes, stallProbes := 15, 12
	if c.Quick {
		stall = 15 * time.Millisecond
		killProbes, stallProbes = 8, 8
	}

	data, err := mustGen(baseGen(c, n))
	if err != nil {
		return nil, err
	}
	mined, err := apriori.Mine(data, mineParams(minsup, 0))
	if err != nil {
		return nil, fmt.Errorf("churn: mining: %w", err)
	}
	v1, err := rules.Generate(mined, rules.Params{MinConfidence: minconf})
	if err != nil {
		return nil, fmt.Errorf("churn: rule generation: %w", err)
	}
	if len(v1) == 0 {
		return nil, fmt.Errorf("churn: no rules at minsup %g / minconf %g", minsup, minconf)
	}

	res := &Result{
		ID:     "churn",
		Title:  "Serving under churn: kill/restore and straggler injection at R=1 vs R=2",
		XLabel: "replicas",
		YLabel: "partial answers",
		Notes: []string{
			fmt.Sprintf("3 nodes, 64 shards, %d rules; each node killed and restored under a concurrent query stream, then a %v delay injected on the preferred replica", len(v1), stall),
			"partials must be 0 at R=2 (every shard keeps a live copy) and >0 at R=1 (kill windows orphan shards)",
			fmt.Sprintf("stall p99(ms) is the straggler-phase tail: R=1 waits the full %v, R=2 hedges past it", stall),
			"results hash is over the healed fleet and must agree across runs and across R",
		},
		TableHeader: []string{"replicas", "queries", "partials", "retries", "hedges", "probes", "stall p99(ms)", "p99(ms)", "results"},
	}
	partialsSeries := Series{Name: "partials"}
	stallSeries := Series{Name: "stall_p99_ms"}

	for _, r := range []int{1, 2} {
		row, err := churnOne(data, v1, r, topK, killProbes, stallProbes, stall, uint64(c.Seed))
		if err != nil {
			return nil, fmt.Errorf("churn: R=%d: %w", r, err)
		}
		res.TableRows = append(res.TableRows, []string{
			fmt.Sprintf("%d", r),
			fmt.Sprintf("%d", row.queries),
			fmt.Sprintf("%d", row.partials),
			fmt.Sprintf("%d", row.retries),
			fmt.Sprintf("%d", row.hedges),
			fmt.Sprintf("%d", row.probes),
			fmt.Sprintf("%.3f", row.stallP99ms),
			fmt.Sprintf("%.3f", row.p99ms),
			fmt.Sprintf("%016x", row.resultHash),
		})
		partialsSeries.Points = append(partialsSeries.Points, Point{X: float64(r), Y: float64(row.partials)})
		stallSeries.Points = append(stallSeries.Points, Point{X: float64(r), Y: row.stallP99ms})
	}
	res.Series = []Series{partialsSeries, stallSeries}
	return res, nil
}

// churnRow is one replication factor's sample.
type churnRow struct {
	queries    int64
	partials   int64
	retries    int64
	hedges     int64
	probes     int64
	stallP99ms float64
	p99ms      float64
	resultHash uint64
}

// churnOne runs the churn script against one fleet: background stream on,
// kill and restore each node with synchronous probe queries inside every
// kill window (so the window is guaranteed to be observed), straggler
// injection with per-query latency capture, then the deterministic hash
// pass on the healed fleet.
func churnOne(data *itemset.Dataset, v1 []rules.Rule, r, topK, killProbes, stallProbes int, stall time.Duration, seed uint64) (churnRow, error) {
	cl, err := distserve.NewCluster(3, distserve.Options{
		Shards:     64,
		Seed:       seed,
		Replicas:   r,
		HedgeDelay: 2 * time.Millisecond,
		Node:       serve.Options{},
	})
	if err != nil {
		return churnRow{}, err
	}
	defer cl.Close()
	if _, err := cl.Router.Publish(v1, true); err != nil {
		return churnRow{}, err
	}

	txns := data.Transactions
	const workers = 4
	var stop atomic.Bool
	errs := make([]error, workers)
	done := make(chan int, workers)
	for w := 0; w < workers; w++ {
		w := w
		go func() {
			for i := 0; !stop.Load(); i++ {
				basket := txns[(w+i*workers)%len(txns)].Items
				if _, err := cl.Router.Recommend(basket, topK); err != nil {
					errs[w] = err
					break
				}
			}
			done <- w
		}()
	}

	var row churnRow

	// Kill windows: take each node down in turn, drive probe queries
	// through the window so it is observed even if the stream stalls, then
	// restore and recover the detector with one probe round.
	for i, lc := range cl.Clients {
		lc.SetDown(true)
		for q := 0; q < killProbes; q++ {
			if _, err := cl.Router.Recommend(txns[(i*killProbes+q)%len(txns)].Items, topK); err != nil {
				stop.Store(true)
				return churnRow{}, err
			}
		}
		lc.SetDown(false)
		cl.Router.ProbeOnce()
	}

	// Straggler phase: delay the preferred replica of shard 0 and measure
	// the driver's own tail across queries that are free to hedge (R=2) or
	// stuck waiting (R=1).
	stragglerID := cl.Router.Replicas()[0][0]
	for _, lc := range cl.Clients {
		if lc.Node().ID() == stragglerID {
			lc.SetDelay(stall)
		}
	}
	for q := 0; q < stallProbes; q++ {
		begin := time.Now() //checkinv:allow walltime — the churn driver measures real serving latency, never the virtual clock
		if _, err := cl.Router.Recommend(txns[q%len(txns)].Items, topK); err != nil {
			stop.Store(true)
			return churnRow{}, err
		}
		if ms := time.Since(begin).Seconds() * 1e3; ms > row.stallP99ms { //checkinv:allow walltime — pairs with the time.Now above
			row.stallP99ms = ms
		}
	}
	for _, lc := range cl.Clients {
		lc.SetDelay(0)
	}

	stop.Store(true)
	for w := 0; w < workers; w++ {
		<-done
	}
	for _, err := range errs {
		if err != nil {
			return churnRow{}, err
		}
	}

	// Healed-fleet hash pass: deterministic baskets, exact answers.
	cl.Router.ProbeOnce()
	h := fnv.New64a()
	probes := 30
	if probes > len(txns) {
		probes = len(txns)
	}
	for i := 0; i < probes; i++ {
		res, err := cl.Router.Recommend(txns[i].Items, topK)
		if err != nil {
			return churnRow{}, err
		}
		if res.Partial {
			return churnRow{}, fmt.Errorf("partial answer on a fully healed fleet (missed %v)", res.MissedShards)
		}
		hashAnswer(h, txns[i].Items, res.Rules)
	}
	row.resultHash = h.Sum64()

	m := cl.Router.Metrics()
	row.queries = m.Queries
	row.partials = m.PartialResults
	row.retries = m.Retries
	row.hedges = m.Hedges
	row.probes = m.Probes
	row.p99ms = m.P99LatencyMicros / 1000
	return row, nil
}

// hashAnswer absorbs one (basket, ranked rules) pair into h, floats by IEEE
// bit pattern so any drift shows.
func hashAnswer(h io.Writer, basket itemset.Itemset, rs []rules.Rule) {
	var buf [8]byte
	put := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	io.WriteString(h, basket.Key())
	put(uint64(len(rs)))
	for _, r := range rs {
		io.WriteString(h, r.Antecedent.Key())
		io.WriteString(h, r.Consequent.Key())
		put(uint64(r.Count))
		for _, f := range [...]float64{r.Support, r.Confidence, r.Lift, r.Leverage} {
			put(math.Float64bits(f))
		}
	}
}
