package distserve

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"parapriori/internal/itemset"
	"parapriori/internal/rules"
	"parapriori/internal/serve"
)

// commitFailClient is an in-process client whose Commit can be made to fail
// while every other call goes through: a node cut off between the two
// phases of a publish.
type commitFailClient struct {
	*LocalClient
	failCommit atomic.Bool
}

// Commit implements Client.
func (c *commitFailClient) Commit(ctx context.Context, gen uint64) error {
	if c.failCommit.Load() {
		return fmt.Errorf("%w: %s refused the commit", ErrNodeDown, c.ID())
	}
	return c.LocalClient.Commit(ctx, gen)
}

// overlapFleet is a three-node, two-replica fleet and a basket whose routed
// query needs exactly two legs that overlap.  The basket touches shard s1
// (replicas node00, node01), s2 (node02, node01) and s3 (node00, node02),
// so an idle fleet sends each shard to its primary — legs to node00 and
// node02, whose answers cover {s1, s3} and {s2, s3}: neither covers all
// three shards, and both carry s3's groups.
type overlapFleet struct {
	router  *Router
	nodes   []*Node
	clients []*commitFailClient
	basket  []itemset.Item
	v1, v2  []rules.Rule
}

// newOverlapFleet builds the fleet, publishes v1 through the router and
// warms the latency histogram with slowed queries, so the hedge delay sits
// far above an in-process leg and no hedge joins the legs under test.
func newOverlapFleet(t *testing.T) *overlapFleet {
	t.Helper()
	opt := Options{Shards: 64, Replicas: 2}.WithDefaults()
	f := &overlapFleet{}
	var cs []Client
	for i := 0; i < 3; i++ {
		node := NewNode(fmt.Sprintf("node%02d", i), opt.Node)
		t.Cleanup(node.Close)
		c := &commitFailClient{LocalClient: &LocalClient{node: node}}
		f.nodes = append(f.nodes, node)
		f.clients = append(f.clients, c)
		cs = append(cs, c)
	}
	r, err := NewRouter(cs, opt)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	f.router = r

	// One basket item per wanted replica list.
	reps := r.Replicas()
	want := [][]string{{"node00", "node01"}, {"node02", "node01"}, {"node00", "node02"}}
	for _, w := range want {
		found := false
		for it := itemset.Item(0); it < 1000 && !found; it++ {
			if reflect.DeepEqual(reps[opt.shardOf(it)], w) {
				f.basket = append(f.basket, it)
				found = true
			}
		}
		if !found {
			t.Fatalf("no item below 1000 lands on a shard with replicas %v", w)
		}
	}

	// v1: every basket item and every pair of them implies a few
	// consequents outside the basket; v2 is v1 with other measures, so a
	// copy's generation shows in the answer.
	b := f.basket
	ants := []itemset.Itemset{
		itemset.New(b[0]), itemset.New(b[1]), itemset.New(b[2]),
		itemset.New(b[0], b[1]), itemset.New(b[1], b[2]), itemset.New(b[0], b[2]),
	}
	for a, ant := range ants {
		for j := 0; j < 4; j++ {
			conf := float64(4+(a*7+j*3)%16) / 20
			sup := float64(1+(a+j)%5) / 100
			f.v1 = append(f.v1, rules.Rule{
				Antecedent: ant,
				Consequent: itemset.New(itemset.Item(5000 + 10*a + j)),
				Count:      int64(10 * (a + j + 1)),
				Support:    sup,
				Confidence: conf,
				Lift:       float64(10+a+j) / 10,
				Leverage:   sup - sup*conf,
			})
		}
	}
	for _, rule := range f.v1 {
		rule.Confidence = 1 - rule.Confidence/2
		rule.Lift += 0.5
		f.v2 = append(f.v2, rule)
	}
	if _, err := r.Publish(f.v1, true); err != nil {
		t.Fatalf("publish v1: %v", err)
	}

	const warmDelay = 20 * time.Millisecond
	for _, c := range f.clients {
		c.SetDelay(warmDelay)
	}
	for i := 0; i < 4; i++ {
		if _, err := r.Recommend(f.basket, serve.MaxK); err != nil {
			t.Fatalf("warm-up query %d: %v", i, err)
		}
	}
	for _, c := range f.clients {
		c.SetDelay(0)
	}
	if d := r.hedgeDelay(); d < warmDelay {
		t.Fatalf("hedge delay after warm-up = %v, want at least %v", d, warmDelay)
	}
	for _, h := range r.health { // let the warm-up's hedged legs land
		for h.outstanding.Load() != 0 {
			time.Sleep(time.Millisecond)
		}
	}
	return f
}

// ownedBy returns the shards whose replica set includes node id.
func (f *overlapFleet) ownedBy(id string) map[int]bool {
	owned := map[int]bool{}
	for s, reps := range f.router.Replicas() {
		for _, rid := range reps {
			if rid == id {
				owned[s] = true
			}
		}
	}
	return owned
}

// expect is the answer a merge must give when the shards in newer answer
// from v2 and every other shard from v1: a single node over that union.
// k is MaxK and the rule set is small, so no node truncates its answer.
func (f *overlapFleet) expect(t *testing.T, newer map[int]bool) []rules.Rule {
	t.Helper()
	opt := f.router.opt
	var union []rules.Rule
	for i := range f.v1 {
		if newer[opt.shardOf(f.v1[i].Antecedent[0])] {
			union = append(union, f.v2[i])
		} else {
			union = append(union, f.v1[i])
		}
	}
	srv := singleNode(t, union, opt)
	want, err := srv.Recommend(f.basket, serve.MaxK)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	return want
}

// checkMixed asserts the shape every mixed answer of the overlap basket
// shares: two legs, no retry, nothing missed, generation 1, Mixed.
func checkMixed(t *testing.T, got *Result, want []rules.Rule) {
	t.Helper()
	if got.NodesQueried != 2 || got.Retries != 0 || got.Partial {
		t.Fatalf("legs: nodes %d retries %d partial %v, want 2 nodes, no retry, whole", got.NodesQueried, got.Retries, got.Partial)
	}
	if got.Generation != 1 || !got.Mixed {
		t.Fatalf("generation %d mixed %v, want the lowest generation 1 and mixed", got.Generation, got.Mixed)
	}
	if !reflect.DeepEqual(got.Rules, want) {
		t.Fatalf("merged rules:\n got  %v\n want %v", got.Rules, want)
	}
}

// TestMergeMixedGenerations pins the merge of answers from two generations:
// node02 is moved to generation 2 behind the router's back, so the overlap
// basket's two legs answer from generations 1 and 2.  For every
// (antecedent, consequent) the newer copy wins — on s3 against node00, the
// lower node ID — the answer reports the lower generation and is Mixed.
// Before the move the same two legs answer from generation 1 alone, and
// that answer is not Mixed.  The mixed answer re-asks node00 through
// refresh legs, each recorded as a fanout span carrying attempt=refresh and
// the request's link, and no leg is left outstanding once Recommend
// returns.
func TestMergeMixedGenerations(t *testing.T) {
	f := newOverlapFleet(t)
	got, err := f.router.Recommend(f.basket, serve.MaxK)
	if err != nil {
		t.Fatalf("Recommend at one generation: %v", err)
	}
	if got.NodesQueried != 2 || got.Generation != 1 || got.Mixed {
		t.Fatalf("at one generation: nodes %d generation %d mixed %v, want 2 legs at generation 1, not mixed", got.NodesQueried, got.Generation, got.Mixed)
	}
	if want := f.expect(t, nil); !reflect.DeepEqual(got.Rules, want) {
		t.Fatalf("merged rules at one generation:\n got  %v\n want %v", got.Rules, want)
	}

	owned := f.ownedBy("node02")
	var owns []int
	for s := range f.router.opt.Shards {
		if owned[s] {
			owns = append(owns, s)
		}
	}
	req := PrepareRequest{Gen: 2, Full: true, Owned: owns}
	opt := f.router.opt
	for _, g := range groupRules(f.v2) {
		if s := opt.shardOf(g.ant()[0]); owned[s] {
			req.Upserts = append(req.Upserts, GroupUpdate{Shard: s, Rules: g.Rules})
		}
	}
	if err := f.nodes[2].Prepare(req); err != nil {
		t.Fatalf("prepare node02: %v", err)
	}
	if err := f.nodes[2].Commit(2); err != nil {
		t.Fatalf("commit node02: %v", err)
	}

	got, err = f.router.Recommend(f.basket, serve.MaxK)
	if err != nil {
		t.Fatalf("Recommend: %v", err)
	}
	checkMixed(t, got, f.expect(t, owned))

	for o, h := range f.router.health {
		if n := h.outstanding.Load(); n != 0 {
			t.Errorf("%s has %d legs outstanding after Recommend returned", f.router.ids[o], n)
		}
	}
	link := "q" + strconv.FormatUint(f.router.reqID.Load(), 10)
	refreshes := 0
	for _, sp := range f.router.flight.Trace().Spans {
		if attempt, _ := sp.Arg("attempt"); sp.Name != "fanout" || attempt != "refresh" {
			continue
		}
		refreshes++
		if l, _ := sp.Arg("link"); l != link {
			t.Errorf("refresh leg carries link %q, want the request's %q", l, link)
		}
		if node, _ := sp.Arg("node"); node != "node00" {
			t.Errorf("refresh leg asked %s, want the stale node00", node)
		}
	}
	if refreshes == 0 {
		t.Errorf("no refresh leg recorded for the mixed answer")
	}
}

// TestRefreshSkipsFailedCommit checks the coherence refresh leaves alone a
// node whose last commit failed: it cannot catch up before the next
// publish, so re-querying it only burns the refresh window.  node02 refuses
// generation 2's commit; the overlap basket then mixes node00's generation
// 2 with node02's generation 1, and the answer is that mix, with no
// refresh leg.
func TestRefreshSkipsFailedCommit(t *testing.T) {
	f := newOverlapFleet(t)
	f.clients[2].failCommit.Store(true)
	if _, err := f.router.Publish(f.v2, false); err == nil {
		t.Fatal("publish with a refused commit reported success")
	}
	if g := f.nodes[2].Gen(); g != 1 {
		t.Fatalf("node02 at generation %d after refusing the commit, want 1", g)
	}

	before := f.router.met.refreshes.Load()
	got, err := f.router.Recommend(f.basket, serve.MaxK)
	if err != nil {
		t.Fatalf("Recommend: %v", err)
	}
	if n := f.router.met.refreshes.Load() - before; n != 0 {
		t.Fatalf("%d refresh legs re-asked a node that missed the commit", n)
	}
	checkMixed(t, got, f.expect(t, f.ownedBy("node00")))
}

// dedupeSort is the reference merge: every answer's rules, in node order,
// deduplicated through a map keyed by antecedent and consequent — a newer
// generation's copy displaces an older one, and the first copy seen stays
// on a tie — then ranked and cut to k.
func dedupeSort(answers []answer, k int) []rules.Rule {
	var matches []rules.Rule
	var genOf []uint64
	seen := make(map[string]int)
	for _, a := range answers {
		for _, rule := range a.rules {
			key := rule.Antecedent.Key() + "|" + rule.Consequent.Key()
			if j, ok := seen[key]; ok {
				if a.gen > genOf[j] {
					matches[j], genOf[j] = rule, a.gen
				}
				continue
			}
			seen[key] = len(matches)
			matches = append(matches, rule)
			genOf = append(genOf, a.gen)
		}
	}
	return serve.RankTruncate(matches, k)
}

// TestMergeAnswersMatchesDedupeSort checks the k-way merge against
// dedupeSort on random answers: up to five nodes, each answering (or not)
// from one of up to three generations with a ranked, truncated subset of
// that generation's rules.  A rule's measures may change from one
// generation to the next, never within one — the invariant a publish keeps.
func TestMergeAnswersMatchesDedupeSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	base := synthRules(60, 20, 3)
	for trial := 0; trial < 3000; trial++ {
		gens := 1 + rng.Intn(3)
		version := [][]rules.Rule{nil, base} // version[g]: generation g's rules
		for g := 2; g <= gens; g++ {
			next := slices.Clone(version[g-1])
			for i := range next {
				if rng.Intn(2) == 0 {
					next[i].Confidence = float64(1+rng.Intn(20)) / 20
					next[i].Lift = float64(1+rng.Intn(30)) / 10
				}
			}
			version = append(version, next)
		}
		var answers []answer
		for o := 0; o < 1+rng.Intn(5); o++ {
			if rng.Intn(4) == 0 {
				continue // no answer from this node
			}
			g := 1 + rng.Intn(gens)
			var local []rules.Rule
			for _, rule := range version[g] {
				if rng.Intn(3) == 0 {
					local = append(local, rule)
				}
			}
			local = serve.RankTruncate(local, 1+rng.Intn(30))
			answers = append(answers, answer{node: o, rules: local, gen: uint64(g)})
		}
		k := 1 + rng.Intn(40)
		want := dedupeSort(answers, k)
		if got := mergeAnswers(answers, k); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d, k=%d:\n got  %v\n want %v", trial, k, got, want)
		}
	}
}

// routerBenchFleet is a warm in-process fleet of four nodes, 64 shards and
// two replicas — serve-churn's shape — over 2000 synthetic rules, with a
// basket of twelve items, the mean length of serve-churn's baskets, that
// fans out to more than one node.
func routerBenchFleet(tb testing.TB, node serve.Options) (*Cluster, []itemset.Item) {
	tb.Helper()
	c, err := NewCluster(4, Options{Shards: 64, Replicas: 2, Node: node})
	if err != nil {
		tb.Fatalf("NewCluster: %v", err)
	}
	tb.Cleanup(c.Close)
	if _, err := c.Router.Publish(synthRules(2000, 40, 17), true); err != nil {
		tb.Fatalf("publish: %v", err)
	}
	basket := []itemset.Item{2, 4, 7, 9, 12, 15, 17, 21, 26, 30, 33, 38}
	res, err := c.Router.Recommend(basket, 10)
	if err != nil || len(res.Rules) == 0 || res.NodesQueried < 2 {
		tb.Fatalf("bench basket needs a non-empty answer from two or more nodes: %+v %v", res, err)
	}
	return c, basket
}

var sinkResult *Result

// TestRouterRecommendAllocs bounds what a warm routed hit allocates on a
// basket of serve-churn's mean length, which fans out to three or four of
// the four nodes.  The query itself allocates twelve objects: the basket
// copy, the span link, the Result, its bookkeeping (one slice of ints, one
// of flags, one of answers), the leg channel (two), the hedge timer (two),
// the request span's attributes and the merged rules.  Each leg adds
// three: its goroutine, the leg span's attributes and the node span's
// attributes.  A leg carries its deadline as a time, and the node answers
// with its cached rules read-only, so neither a deadline context nor an
// answer copy is made.  The runtime packs some of the small ones into one
// block: 23 are counted with four legs.
func TestRouterRecommendAllocs(t *testing.T) {
	c, basket := routerBenchFleet(t, serve.Options{})
	got := testing.AllocsPerRun(200, func() { sinkResult, _ = c.Router.Recommend(basket, 10) })
	t.Logf("%v allocations per routed hit (%d legs)", got, sinkResult.NodesQueried)
	const bound = 25
	if got > bound {
		t.Errorf("%v allocations per routed hit, want ≤ %v", got, bound)
	}
}

// TestRoutedResultAliasing: a node hands the router its cached answer
// read-only, and the merge copies what it keeps, so a caller that
// scribbles over a routed result — its elements overwritten, the slice
// appended to — changes no later answer.  Each basket is scribbled over
// once as a miss (the nodes' first answer, which they cache) and once as
// a hit, and every answer stays byte-identical to one server over the
// whole rule set.
func TestRoutedResultAliasing(t *testing.T) {
	rs := synthRules(2000, 40, 17)
	opt := Options{Shards: 64, Replicas: 2}
	c := mustCluster(t, 4, opt)
	if _, err := c.Router.Publish(rs, true); err != nil {
		t.Fatalf("publish: %v", err)
	}
	srv := singleNode(t, rs, opt)
	rng := rand.New(rand.NewSource(5))
	fired, oneLeg := 0, 0
	for q := 0; q < 40; q++ {
		basket := randBasket(rng, 40)
		want, err := srv.Recommend(basket, 10)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, _ := json.Marshal(want)
		for _, pass := range []string{"miss", "hit", "re-query"} {
			res, err := c.Router.Recommend(basket, 10)
			if err != nil || res.Partial {
				t.Fatalf("basket %v %s: %+v %v", basket, pass, res, err)
			}
			if pass == "miss" && len(res.Rules) > 0 {
				fired++
				if res.NodesQueried == 1 {
					oneLeg++
				}
			}
			if got, _ := json.Marshal(res.Rules); string(got) != string(wantJSON) {
				t.Fatalf("basket %v %s after a scribble:\n got %s\nwant %s", basket, pass, got, wantJSON)
			}
			for i := range res.Rules {
				res.Rules[i] = rules.Rule{Confidence: -1}
			}
			res.Rules = append(res.Rules, rules.Rule{Confidence: -2})
		}
	}
	if fired < 20 || oneLeg == 0 {
		t.Fatalf("%d of 40 baskets fired, %d of them on one leg: the fixture needs both kinds", fired, oneLeg)
	}
}

// BenchmarkRouterRecommend prices one routed query on a warm fleet: hit
// answers every leg from the nodes' query caches, miss runs with the caches
// off, so every leg scans its node's index.
func BenchmarkRouterRecommend(b *testing.B) {
	for _, bc := range []struct {
		name string
		node serve.Options
	}{
		{"hit", serve.Options{}},
		{"miss", serve.Options{CacheSize: -1}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			c, basket := routerBenchFleet(b, bc.node)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkResult, _ = c.Router.Recommend(basket, 10)
			}
		})
	}
}

// TestNewRouterMembership: a router orders its members by ID whatever order
// the clients come in, places replicas by ordinal into that order, and
// refuses an empty membership and a repeated ID.
func TestNewRouterMembership(t *testing.T) {
	var clients []Client
	for _, id := range []string{"node02", "node00", "node01"} {
		n := NewNode(id, serve.Options{})
		t.Cleanup(n.Close)
		clients = append(clients, &LocalClient{node: n})
	}
	opt := Options{Shards: 6, Replicas: 2}
	r, err := NewRouter(clients, opt)
	if err != nil {
		t.Fatal(err)
	}
	if ids := r.NodeIDs(); !slices.Equal(ids, []string{"node00", "node01", "node02"}) {
		t.Fatalf("members %v, want them sorted", ids)
	}
	for o, c := range r.clients {
		if c.ID() != r.ids[o] {
			t.Fatalf("client %s at ordinal %d of %s", c.ID(), o, r.ids[o])
		}
	}
	opt = opt.WithDefaults()
	if want := PlaceReplicas(opt.Seed, opt.Shards, opt.Replicas, r.ids); !reflect.DeepEqual(r.Replicas(), want) {
		t.Fatalf("replicas %v, want %v", r.Replicas(), want)
	}
	if _, err := NewRouter(nil, opt); err == nil {
		t.Error("router with no nodes accepted")
	}
	if _, err := NewRouter(append(clients, clients[1]), opt); err == nil || !strings.Contains(err.Error(), `duplicate node ID "node00"`) {
		t.Errorf("repeated node00: %v", err)
	}
}
