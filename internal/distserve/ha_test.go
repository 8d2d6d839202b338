package distserve

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parapriori/internal/itemset"
	"parapriori/internal/serve"
)

// haOptions is the replicated-tier configuration the HA tests share: R=2.
func haOptions(shards int) Options {
	return Options{Shards: shards, Seed: 42, Replicas: 2}
}

// TestReplicaFailoverExact is the tentpole property test: with R=2 and ANY
// single node down, every Recommend must still be non-Partial and
// bit-identical to a single-node server over the full rule set.
func TestReplicaFailoverExact(t *testing.T) {
	rs := synthRules(300, 50, 11)
	opt := haOptions(16)
	c := mustCluster(t, 3, opt)
	if _, err := c.Router.Publish(rs, true); err != nil {
		t.Fatalf("publish: %v", err)
	}
	srv := singleNode(t, rs, opt)

	for down := 0; down < len(c.Clients); down++ {
		t.Run(fmt.Sprintf("down=%s", c.Nodes[down].ID()), func(t *testing.T) {
			c.Clients[down].SetDown(true)
			rng := rand.New(rand.NewSource(int64(500 + down)))
			for i := 0; i < 40; i++ {
				basket := randBasket(rng, 50)
				k := []int{0, 1, 5, 10}[rng.Intn(4)]
				want, err := srv.Recommend(basket, k)
				if err != nil {
					t.Fatalf("oracle: %v", err)
				}
				got, err := c.Router.Recommend(basket, k)
				if err != nil {
					t.Fatalf("distributed Recommend with %s down: %v", c.Nodes[down].ID(), err)
				}
				if got.Partial {
					t.Fatalf("partial answer with one of two replicas down (missed %v)", got.MissedShards)
				}
				if !reflect.DeepEqual(got.Rules, want) {
					t.Fatalf("basket %v k=%d diverged from single-node oracle", basket, k)
				}
			}
			// Revive and recover: one probe round brings the node back.
			c.Clients[down].SetDown(false)
			c.Router.ProbeOnce()
			if st := c.Router.Health()[c.Nodes[down].ID()]; st != HealthUp {
				t.Fatalf("revived node health = %v, want up", st)
			}
		})
	}

	m := c.Router.Metrics()
	if m.PartialResults != 0 {
		t.Fatalf("partial results = %d, want 0", m.PartialResults)
	}
	if m.Retries == 0 {
		t.Fatalf("no retries recorded while killing nodes — failover path untested")
	}
}

// clientOf maps a node ID back to its in-process client.
func clientOf(t *testing.T, c *Cluster, id string) *LocalClient {
	t.Helper()
	for _, lc := range c.Clients {
		if lc.node.ID() == id {
			return lc
		}
	}
	t.Fatalf("no client for node %q", id)
	return nil
}

// TestFailureDetectorTransitions walks one node through the detector's
// states: repeated failures drive Up → Suspect → Down, queries stop
// selecting the Down node, and a successful probe restores it to Up.
// The victim is the preferred (HRW-first) replica of a fixed basket's
// shard, so every query deterministically selects it while it is live.
func TestFailureDetectorTransitions(t *testing.T) {
	rs := synthRules(200, 40, 12)
	opt := haOptions(8)
	c := mustCluster(t, 2, opt)
	if _, err := c.Router.Publish(rs, true); err != nil {
		t.Fatalf("publish: %v", err)
	}
	basket := []itemset.Item{0}
	shard := c.Router.opt.shardOf(0)
	victim := c.Router.Replicas()[shard][0]

	// Warm the latency histogram with slowed queries first.  The hedge
	// delay is the router's observed p99, floored at 500µs; on an idle
	// histogram a busy host can take longer than that to bring a failed
	// leg back, and a hedge then answers before the retry (Hedges=1,
	// Retries=0).  After this the hedge waits out a p99 of tens of
	// milliseconds, far beyond a failed leg's scheduling latency.
	const warmDelay = 20 * time.Millisecond
	for _, lc := range c.Clients {
		lc.SetDelay(warmDelay)
	}
	for i := 0; i < 4; i++ {
		if _, err := c.Router.Recommend(basket, 5); err != nil {
			t.Fatalf("warm-up query %d: %v", i, err)
		}
	}
	for _, lc := range c.Clients {
		lc.SetDelay(0)
	}
	if d := c.Router.hedgeDelay(); d < warmDelay {
		t.Fatalf("hedge delay after warm-up = %v, want at least %v", d, warmDelay)
	}
	// A warm-up query returns with its first answer; a hedged leg still in
	// flight counts as load on its node.  Wait those out, so the choice of
	// two sees an idle fleet and picks the victim again.
	for _, h := range c.Router.health {
		for h.outstanding.Load() != 0 {
			time.Sleep(time.Millisecond)
		}
	}
	clientOf(t, c, victim).SetDown(true)

	// Each query picks the victim first (it is the preferred replica and
	// load ties break to HRW order), fails, and retries on the survivor —
	// failThreshold such failures take the detector to Down.
	for i := 0; i < failThreshold; i++ {
		got, err := c.Router.Recommend(basket, 5)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if got.Partial || got.Retries != 1 {
			t.Fatalf("query %d against the downed preferred replica: %+v", i, got)
		}
	}
	if st := c.Router.Health()[victim]; st != HealthDown {
		t.Fatalf("detector state for %s after %d failures = %v, want down",
			victim, failThreshold, st)
	}

	// Down nodes are skipped: the next queries go straight to the
	// survivor, no retries needed.
	for i := 0; i < 10; i++ {
		got, err := c.Router.Recommend(basket, 5)
		if err != nil {
			t.Fatalf("query against degraded fleet: %v", err)
		}
		if got.Partial || got.Retries != 0 {
			t.Fatalf("down node still in the query path: %+v", got)
		}
	}

	// Recovery: probes fail while it is down, succeed once revived.
	if ok := c.Router.ProbeOnce(); ok != 0 {
		t.Fatalf("probe of a down node succeeded (%d)", ok)
	}
	clientOf(t, c, victim).SetDown(false)
	if ok := c.Router.ProbeOnce(); ok != 1 {
		t.Fatalf("probe of the revived node failed (ok=%d)", ok)
	}
	if st := c.Router.Health()[victim]; st != HealthUp {
		t.Fatalf("revived node health = %v, want up", st)
	}
}

// TestChaosChurnZeroPartial is the seeded chaos test: an R=2 fleet serves a
// concurrent query stream while nodes are killed and restored one at a
// time, then the rule set is republished and the churn repeats.  Every
// answer must be non-Partial and bit-identical to the single-node oracle
// for its generation, and the generations each worker observes must be
// monotonic.  The whole test runs under -race in CI.
func TestChaosChurnZeroPartial(t *testing.T) {
	v1 := synthRules(250, 45, 13)
	v2 := mutate(v1)
	opt := haOptions(16)
	c := mustCluster(t, 3, opt)
	if _, err := c.Router.Publish(v1, true); err != nil {
		t.Fatalf("publish v1: %v", err)
	}
	oracles := map[uint64]*serve.Server{1: singleNode(t, v1, opt), 2: singleNode(t, v2, opt)}

	const workers = 4
	var stop atomic.Bool
	var served atomic.Int64
	// epoch counts restores; seen[w] is the epoch at which worker w's last
	// finished query started (MaxInt64 once the worker has exited).
	var epoch atomic.Int64
	var seen [workers]atomic.Int64
	lastGen := make([]uint64, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup

	// settle waits until every worker has finished a query that started
	// after the latest restore, so no query spans two kill windows: one
	// that did could see both replicas of a shard fail, an R=2 double
	// failure of the schedule's own making.
	settle := func() {
		e := epoch.Add(1)
		for w := range seen {
			for seen[w].Load() < e {
				time.Sleep(100 * time.Microsecond)
			}
		}
	}

	phase := func(gen uint64) {
		stop.Store(false)
		start := served.Load()
		for w := 0; w < workers; w++ {
			w := w
			seen[w].Store(epoch.Load())
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer seen[w].Store(math.MaxInt64)
				rng := rand.New(rand.NewSource(int64(1000*gen) + int64(w)))
				for !stop.Load() {
					basket := randBasket(rng, 45)
					e := epoch.Load()
					got, err := c.Router.Recommend(basket, 10)
					if err != nil {
						errs[w] = err
						return
					}
					served.Add(1)
					if got.Partial {
						errs[w] = fmt.Errorf("partial answer under churn (missed %v)", got.MissedShards)
						return
					}
					if got.Generation < lastGen[w] {
						errs[w] = fmt.Errorf("generation regressed %d -> %d", lastGen[w], got.Generation)
						return
					}
					lastGen[w] = got.Generation
					want, _ := oracles[got.Generation].Recommend(basket, 10)
					if !reflect.DeepEqual(got.Rules, want) {
						errs[w] = fmt.Errorf("basket %v diverged from the gen-%d oracle", basket, got.Generation)
						return
					}
					seen[w].Store(e)
				}
			}()
		}
		// Churn: kill and restore each node in turn while the stream runs.
		for i := range c.Clients {
			c.Clients[i].SetDown(true)
			time.Sleep(8 * time.Millisecond)
			c.Clients[i].SetDown(false)
			c.Router.ProbeOnce()
			settle()
		}
		stop.Store(true)
		wg.Wait()
		// An abandoned leg's failure can land after the last probe round.
		c.Router.ProbeOnce()
		for w, err := range errs {
			if err != nil {
				t.Fatalf("gen %d worker %d: %v", gen, w, err)
			}
		}
		if served.Load() == start {
			t.Fatalf("gen %d phase ran no queries", gen)
		}
	}

	phase(1)
	if _, err := c.Router.Publish(v2, false); err != nil {
		t.Fatalf("publish v2: %v", err)
	}
	phase(2)

	m := c.Router.Metrics()
	if m.PartialResults != 0 {
		t.Fatalf("churn produced %d partial results, want 0", m.PartialResults)
	}
	if m.Retries == 0 {
		t.Fatalf("churn produced no retries — the kill windows missed the query stream")
	}
	for id, st := range c.Router.Health() {
		if st != HealthUp {
			t.Fatalf("node %s left %v after churn, want up", id, st)
		}
	}
}

// TestHedgedStragglerExact injects a straggling node and checks that hedged
// legs (a) keep the answer bit-identical to the oracle and (b) keep the
// router's tail latency well under the injected delay — the slow replica is
// raced, not waited for.
func TestHedgedStragglerExact(t *testing.T) {
	rs := synthRules(200, 40, 14)
	const stall = 150 * time.Millisecond
	// One shard: every query's preferred replica is the same node, which is
	// the one we stall — the first query must hedge to the other replica,
	// and choice-of-two load awareness steers later queries off the
	// straggler while its leg is still outstanding.
	opt := Options{Shards: 1, Seed: 42, Replicas: 2}
	c := mustCluster(t, 2, opt)
	if _, err := c.Router.Publish(rs, true); err != nil {
		t.Fatalf("publish: %v", err)
	}
	srv := singleNode(t, rs, opt)
	straggler := c.Router.Replicas()[0][0]
	clientOf(t, c, straggler).SetDelay(stall)

	rng := rand.New(rand.NewSource(88))
	for i := 0; i < 30; i++ {
		basket := randBasket(rng, 40)
		want, _ := srv.Recommend(basket, 10)
		start := time.Now()
		got, err := c.Router.Recommend(basket, 10)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if got.Partial {
			t.Fatalf("query %d partial: %+v", i, got)
		}
		if !reflect.DeepEqual(got.Rules, want) {
			t.Fatalf("query %d diverged from oracle under hedging", i)
		}
		if d := time.Since(start); d >= stall {
			t.Fatalf("query %d took %v, not hedged under the %v straggler", i, d, stall)
		}
	}
	if m := c.Router.Metrics(); m.Hedges == 0 {
		t.Fatalf("straggler never triggered a hedge: %+v", m)
	}
}

// TestAdaptiveHedgeClamp pins the hedge delay to the router's observed p99
// (the upper bound of its log bucket), clamped to [500µs, RequestTimeout/2].
func TestAdaptiveHedgeClamp(t *testing.T) {
	for _, tc := range []struct {
		name    string
		timeout time.Duration
		obs     []time.Duration
		want    time.Duration
	}{
		{"empty", 0, nil, 500 * time.Microsecond},
		{"below floor", 0, []time.Duration{100 * time.Microsecond}, 500 * time.Microsecond},
		{"mid range", 0, []time.Duration{3 * time.Millisecond}, 4096 * time.Microsecond},
		{"above ceiling", 100 * time.Millisecond, []time.Duration{80 * time.Millisecond}, 50 * time.Millisecond},
		{"default ceiling", 0, []time.Duration{1500 * time.Millisecond}, DefaultRequestTimeout / 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := mustCluster(t, 1, Options{RequestTimeout: tc.timeout})
			for _, d := range tc.obs {
				c.Router.met.latency.Observe(d)
			}
			if got := c.Router.hedgeDelay(); got != tc.want {
				t.Fatalf("hedgeDelay() = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestHTTPClientTimeout pins the transport satellite: a slow HTTP node must
// produce a typed *TimeoutError (distinguishable from a refused connection)
// that still unwraps to ErrNodeDown, under both the per-client budget and a
// caller-supplied deadline.
func TestHTTPClientTimeout(t *testing.T) {
	if c := NewHTTPClient("host:9001", 0); c.budget != DefaultRequestTimeout || c.base != "http://host:9001" {
		t.Fatalf("NewHTTPClient(_, 0) = base %q budget %v, want http://host:9001 and %v", c.base, c.budget, DefaultRequestTimeout)
	}

	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(2 * time.Second):
		}
	}))
	defer slow.Close()

	cl := NewHTTPClient(slow.URL, 20*time.Millisecond)
	_, _, err := cl.Recommend(time.Time{}, nil, 5, "")
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("budget expiry returned %T %v, want *TimeoutError", err, err)
	}
	if te.Budget != 20*time.Millisecond {
		t.Fatalf("TimeoutError budget = %v, want 20ms", te.Budget)
	}
	if !errors.Is(err, ErrNodeDown) {
		t.Fatalf("timeout does not unwrap to ErrNodeDown: %v", err)
	}

	// A caller deadline tighter than the budget wins.
	start := time.Now()
	_, _, err = cl.Recommend(start.Add(10*time.Millisecond), nil, 5, "")
	if !errors.As(err, &te) {
		t.Fatalf("caller deadline returned %T %v, want *TimeoutError", err, err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("caller deadline ignored, call took %v", d)
	}

	// A refused connection is ErrNodeDown but NOT a timeout.
	dead := NewHTTPClient("http://127.0.0.1:1", time.Second)
	_, _, err = dead.Recommend(time.Time{}, nil, 5, "")
	if err == nil || !errors.Is(err, ErrNodeDown) {
		t.Fatalf("refused connection = %v, want ErrNodeDown", err)
	}
	if errors.As(err, &te) {
		t.Fatalf("refused connection misclassified as timeout: %v", err)
	}
}

// TestClientTimeoutTaxonomy holds both transports to one timeout taxonomy
// on a leg's deadline: a deadline already past and a stall past the
// deadline are *TimeoutErrors that unwrap to ErrNodeDown, the stall's
// carrying the leg's budget and ending at the deadline; a zero deadline is
// the transport's own budget — the HTTP client's default, none in process.
func TestClientTimeoutTaxonomy(t *testing.T) {
	c := mustCluster(t, 1, Options{Shards: 4})
	if _, err := c.Router.Publish(synthRules(50, 10, 3), true); err != nil {
		t.Fatal(err)
	}
	local := c.Clients[0]
	var stall atomic.Int64
	node := NodeHandler(c.Nodes[0])
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
			return
		case <-time.After(time.Duration(stall.Load())):
		}
		node.ServeHTTP(w, r)
	}))
	defer srv.Close()
	const defaultBudget = 20 * time.Millisecond
	remote := NewHTTPClient(srv.URL, defaultBudget)
	transports := []struct {
		name     string
		cl       Client
		setDelay func(time.Duration)
		budget   time.Duration // what a zero deadline runs under; 0: none
	}{
		{"local", local, local.SetDelay, 0},
		{"http", remote, func(d time.Duration) { stall.Store(int64(d)) }, defaultBudget},
	}
	const leg = 30 * time.Millisecond
	for _, tr := range transports {
		for _, row := range []struct {
			name     string
			deadline func(now time.Time) time.Time
			delay    time.Duration
		}{
			{"expired", func(now time.Time) time.Time { return now.Add(-time.Millisecond) }, 0},
			{"stall past the deadline", func(now time.Time) time.Time { return now.Add(leg) }, 2 * time.Second},
			{"zero deadline", func(time.Time) time.Time { return time.Time{} }, 3 * defaultBudget},
		} {
			t.Run(tr.name+"/"+row.name, func(t *testing.T) {
				tr.setDelay(row.delay)
				defer tr.setDelay(0)
				start := time.Now()
				deadline := row.deadline(start)
				_, _, err := tr.cl.Recommend(deadline, itemset.New(1, 2), 5, "")
				took := time.Since(start)
				if row.name == "zero deadline" && tr.budget == 0 {
					if err != nil {
						t.Fatalf("no deadline, a %v stall: %v, want the answer", row.delay, err)
					}
					return
				}
				var te *TimeoutError
				if !errors.As(err, &te) || !errors.Is(err, ErrNodeDown) {
					t.Fatalf("got %T %v, want a *TimeoutError unwrapping to ErrNodeDown", err, err)
				}
				if took > time.Second {
					t.Fatalf("the call took %v, past its deadline", took)
				}
				switch row.name {
				case "expired":
					if te.Budget != 0 {
						t.Errorf("budget %v, want 0: none was left", te.Budget)
					}
				case "stall past the deadline":
					if te.Budget <= 0 || te.Budget > leg || took < te.Budget {
						t.Errorf("budget %v after %v, want the leg's budget, at most %v", te.Budget, took, leg)
					}
				default:
					if te.Budget != tr.budget {
						t.Errorf("budget %v, want the client's default %v", te.Budget, tr.budget)
					}
				}
			})
		}
	}
}
