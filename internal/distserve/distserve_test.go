package distserve

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"parapriori/internal/itemset"
	"parapriori/internal/rules"
	"parapriori/internal/serve"
)

// synthRules builds a deterministic synthetic rule set: nRules distinct
// (antecedent, consequent) pairs over nItems items with plausible measures.
// Measures are drawn from coarse grids, which produces plenty of rank ties
// to exercise the deterministic tie-breaking through the distributed merge.
func synthRules(nRules, nItems int, seed int64) []rules.Rule {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool, nRules)
	out := make([]rules.Rule, 0, nRules)
	for attempts := 0; len(out) < nRules; attempts++ {
		if attempts > 200*nRules {
			panic(fmt.Sprintf("synthRules: item space of %d too small for %d distinct rules", nItems, nRules))
		}
		raw := make([]itemset.Item, 1+rng.Intn(3))
		for i := range raw {
			raw[i] = itemset.Item(rng.Intn(nItems))
		}
		ant := itemset.New(raw...)
		cons := itemset.New(itemset.Item(rng.Intn(nItems)))
		if len(ant) == 0 || ant.Contains(cons[0]) {
			continue
		}
		key := ant.Key() + "|" + cons.Key()
		if seen[key] {
			continue
		}
		seen[key] = true
		conf := float64(1+rng.Intn(20)) / 20
		sup := float64(1+rng.Intn(50)) / 500
		out = append(out, rules.Rule{
			Antecedent: ant,
			Consequent: cons,
			Count:      int64(1 + rng.Intn(1000)),
			Support:    sup,
			Confidence: conf,
			Lift:       float64(1+rng.Intn(30)) / 10,
			Leverage:   sup - sup*conf,
		})
	}
	return out
}

// randBasket draws a random basket of 1–6 items.
func randBasket(rng *rand.Rand, nItems int) []itemset.Item {
	b := make([]itemset.Item, 1+rng.Intn(6))
	for i := range b {
		b[i] = itemset.Item(rng.Intn(nItems))
	}
	return b
}

// singleNode builds the bit-identical baseline: one serve.Server over the
// full rule set, with the same per-node serving options the cluster uses.
func singleNode(t *testing.T, rs []rules.Rule, opt Options) *serve.Server {
	t.Helper()
	opt = opt.WithDefaults()
	srv := serve.NewServer(opt.Node)
	t.Cleanup(srv.Close)
	srv.Publish(serve.NewIndex(rs, opt.Node))
	return srv
}

// mustCluster builds an n-node in-process cluster and registers cleanup.
func mustCluster(t *testing.T, n int, opt Options) *Cluster {
	t.Helper()
	c, err := NewCluster(n, opt)
	if err != nil {
		t.Fatalf("NewCluster(%d): %v", n, err)
	}
	t.Cleanup(c.Close)
	return c
}

// assertMatch compares one distributed answer against the single-node
// baseline for the same basket and k.
func assertMatch(t *testing.T, c *Cluster, srv *serve.Server, basket []itemset.Item, k int, label string) {
	t.Helper()
	want, err := srv.Recommend(basket, k)
	if err != nil {
		t.Fatalf("%s: single-node Recommend: %v", label, err)
	}
	got, err := c.Router.Recommend(basket, k)
	if err != nil {
		t.Fatalf("%s: distributed Recommend: %v", label, err)
	}
	if got.Partial {
		t.Fatalf("%s: unexpected partial result (missed shards %v)", label, got.MissedShards)
	}
	if !reflect.DeepEqual(got.Rules, want) {
		t.Fatalf("%s: basket %v k=%d:\n distributed %v\n single-node %v", label, basket, k, got.Rules, want)
	}
}

// TestDistributedMatchesSingleNode is the oracle property test: across shard,
// node and replica counts, the scatter-gathered top-K is bit-identical to one
// serve.Server over the full rule set — so replication never changes an
// answer, only availability.
func TestDistributedMatchesSingleNode(t *testing.T) {
	rs := synthRules(400, 60, 1)
	for _, shards := range []int{1, 4, 32} {
		for _, nodes := range []int{1, 2, 3, 5} {
			t.Run(fmt.Sprintf("shards=%d/nodes=%d", shards, nodes), func(t *testing.T) {
				for r := 1; r <= min(3, nodes); r++ {
					t.Run(fmt.Sprintf("replicas=%d", r), func(t *testing.T) {
						opt := Options{Shards: shards, Replicas: r}
						c := mustCluster(t, nodes, opt)
						if _, err := c.Router.Publish(rs, true); err != nil {
							t.Fatalf("publish: %v", err)
						}
						srv := singleNode(t, rs, opt)
						rng := rand.New(rand.NewSource(7))
						n := 60
						if testing.Short() {
							n = 15
						}
						for i := 0; i < n; i++ {
							basket := randBasket(rng, 60)
							k := []int{0, 1, 5, 10, 50}[rng.Intn(5)]
							assertMatch(t, c, srv, basket, k, "gen1")
						}
					})
				}
			})
		}
	}
}

// mutate derives a changed rule set: a deterministic slice of groups gets a
// confidence bump (content change), another slice is dropped entirely, and
// a few fresh rules appear — the small-delta regime delta publishing is for.
func mutate(rs []rules.Rule) []rules.Rule {
	var out []rules.Rule
	for _, r := range rs {
		h := splitmix64(uint64(len(r.Antecedent.Key())) ^ uint64(uint32(r.Antecedent[0]))<<8 ^ uint64(r.Count))
		switch h % 20 {
		case 0: // drop
		case 1: // change
			r.Confidence = r.Confidence * 0.95
			out = append(out, r)
		default:
			out = append(out, r)
		}
	}
	out = append(out, synthRules(10, 60, 99)...)
	return out
}

// TestDeltaPublishMatchesAndShipsLess publishes v1 in full, then v2 as a
// delta, and checks (a) answers over v2 are bit-identical to a single node
// over v2, and (b) the delta shipped measurably fewer canonical bytes than
// a full publish of v2 would have.
func TestDeltaPublishMatchesAndShipsLess(t *testing.T) {
	v1 := synthRules(400, 60, 2)
	v2 := mutate(v1)
	opt := Options{Shards: 32}

	c := mustCluster(t, 3, opt)
	if _, err := c.Router.Publish(v1, true); err != nil {
		t.Fatalf("publish v1: %v", err)
	}
	delta, err := c.Router.Publish(v2, false)
	if err != nil {
		t.Fatalf("publish v2 delta: %v", err)
	}

	// Full-publish byte cost of v2, measured on an identical fresh fleet.
	c2 := mustCluster(t, 3, opt)
	full, err := c2.Router.Publish(v2, true)
	if err != nil {
		t.Fatalf("publish v2 full: %v", err)
	}
	if delta.Bytes >= full.Bytes/2 {
		t.Fatalf("delta shipped %d bytes, full %d — expected well under half for a <10%% change", delta.Bytes, full.Bytes)
	}
	if delta.Gen != 2 || delta.Full {
		t.Fatalf("delta stats: %+v", delta)
	}
	if delta.Removes == 0 || delta.Upserts == 0 {
		t.Fatalf("mutation should produce both upserts and removes: %+v", delta)
	}

	srv := singleNode(t, v2, opt)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 60; i++ {
		basket := randBasket(rng, 60)
		assertMatch(t, c, srv, basket, 10, "after delta")
	}

	// Determinism: both fleets now hold v2 — same placement, same answers.
	if !reflect.DeepEqual(c.Router.Placement(), c2.Router.Placement()) {
		t.Fatal("same seed and membership gave different placements")
	}
	for i := 0; i < 20; i++ {
		basket := randBasket(rng, 60)
		a, err1 := c.Router.Recommend(basket, 10)
		b, err2 := c2.Router.Recommend(basket, 10)
		if err1 != nil || err2 != nil {
			t.Fatalf("recommend: %v / %v", err1, err2)
		}
		if !reflect.DeepEqual(a.Rules, b.Rules) {
			t.Fatalf("delta-updated and fresh-published fleets disagree on %v", basket)
		}
	}
}

// TestNodeLossDegradesDeterministically takes one node down and checks the
// router returns exactly the surviving shards' rules — the single-node
// oracle with the lost shards' groups filtered out — flagged Partial.
func TestNodeLossDegradesDeterministically(t *testing.T) {
	rs := synthRules(400, 60, 3)
	opt := Options{Shards: 32}
	c := mustCluster(t, 3, opt)
	if _, err := c.Router.Publish(rs, true); err != nil {
		t.Fatalf("publish: %v", err)
	}

	lost := c.Clients[1]
	lost.SetDown(true)
	lostID := lost.ID()
	lostShards := make(map[int]bool)
	for s, id := range c.Router.Placement() {
		if id == lostID {
			lostShards[s] = true
		}
	}

	// The oracle for a degraded fleet: the full rule set minus every group
	// living on a lost shard.
	dopt := opt.WithDefaults()
	var surviving []rules.Rule
	for _, r := range rs {
		if !lostShards[dopt.shardOf(r.Antecedent[0])] {
			surviving = append(surviving, r)
		}
	}
	srv := singleNode(t, surviving, opt)

	rng := rand.New(rand.NewSource(9))
	sawPartial := false
	for i := 0; i < 80; i++ {
		basket := randBasket(rng, 60)
		want, err := srv.Recommend(basket, 10)
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
		got, err := c.Router.Recommend(basket, 10)
		if err != nil {
			t.Fatalf("degraded Recommend: %v", err)
		}
		if !reflect.DeepEqual(got.Rules, want) {
			t.Fatalf("degraded result mismatch for %v:\n got %v\n want %v", basket, got.Rules, want)
		}
		needsLost := false
		for _, it := range itemset.New(basket...) {
			if lostShards[dopt.shardOf(it)] {
				needsLost = true
			}
		}
		if got.Partial != needsLost {
			t.Fatalf("basket %v: Partial=%v, needs lost shard=%v", basket, got.Partial, needsLost)
		}
		if got.Partial {
			sawPartial = true
			for _, s := range got.MissedShards {
				if !lostShards[s] {
					t.Fatalf("missed shard %d not owned by the lost node", s)
				}
			}
		}
	}
	if !sawPartial {
		t.Fatal("no basket touched the lost node's shards — test is vacuous")
	}

	// Revival restores bit-identical full answers.
	lost.SetDown(false)
	fullSrv := singleNode(t, rs, opt)
	for i := 0; i < 30; i++ {
		assertMatch(t, c, fullSrv, randBasket(rng, 60), 10, "revived")
	}
}

// TestPublishAbortsOnPrepareFailure checks two-phase semantics: a node that
// fails Prepare aborts the publish, the old generation keeps serving
// everywhere, and a retry once the node is back succeeds.
func TestPublishAbortsOnPrepareFailure(t *testing.T) {
	v1 := synthRules(200, 50, 4)
	v2 := mutate(v1)
	opt := Options{Shards: 16}
	c := mustCluster(t, 3, opt)
	if _, err := c.Router.Publish(v1, true); err != nil {
		t.Fatalf("publish v1: %v", err)
	}

	c.Clients[2].SetDown(true)
	if _, err := c.Router.Publish(v2, false); err == nil {
		t.Fatal("publish with a down node should abort")
	}
	if g := c.Router.gen; g != 1 {
		t.Fatalf("aborted publish advanced the generation to %d", g)
	}
	for _, n := range c.Nodes {
		if n.Gen() != 1 {
			t.Fatalf("node %s serving generation %d after aborted publish", n.ID(), n.Gen())
		}
	}
	c.Clients[2].SetDown(false)

	// v1 still serves bit-identically, then the retry lands v2.
	srv1 := singleNode(t, v1, opt)
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 20; i++ {
		assertMatch(t, c, srv1, randBasket(rng, 50), 10, "after abort")
	}
	if _, err := c.Router.Publish(v2, false); err != nil {
		t.Fatalf("retry publish: %v", err)
	}
	srv2 := singleNode(t, v2, opt)
	for i := 0; i < 20; i++ {
		assertMatch(t, c, srv2, randBasket(rng, 50), 10, "after retry")
	}
}

// TestPlaceMinimalMovement checks the rendezvous property a router built
// over a changed membership inherits: one more node changes only the
// replica sets the newcomer enters (the survivors keep their order), and
// dropping it again restores the original placement exactly.
func TestPlaceMinimalMovement(t *testing.T) {
	for _, r := range []int{1, 2} {
		for seed := uint64(1); seed <= 8; seed++ {
			ids := []string{"node00", "node01", "node02", "node03"}[:2+int(seed)%3]
			before := PlaceReplicas(seed, 64, r, ids)
			after := PlaceReplicas(seed, 64, r, append(ids[:len(ids):len(ids)], "node99"))
			entered := 0
			for s := range after {
				var rest []string
				for _, id := range after[s] {
					if id != "node99" {
						rest = append(rest, id)
					}
				}
				if len(rest) == len(after[s]) {
					if !reflect.DeepEqual(after[s], before[s]) {
						t.Fatalf("R=%d seed %d: shard %d changed without the newcomer: %v → %v", r, seed, s, before[s], after[s])
					}
					continue
				}
				entered++
				if !slices.Equal(rest, before[s][:len(rest)]) {
					t.Fatalf("R=%d seed %d: shard %d reordered its survivors: %v → %v", r, seed, s, before[s], after[s])
				}
			}
			if entered == 0 {
				t.Fatalf("R=%d seed %d: the newcomer entered no replica set of 64", r, seed)
			}
			if again := PlaceReplicas(seed, 64, r, ids); !reflect.DeepEqual(again, before) {
				t.Fatalf("R=%d seed %d: placement without the newcomer differs from the original", r, seed)
			}
		}
	}
}

// TestPlaceDeterministic checks placement is a pure function of (seed,
// shards, membership): input order is irrelevant, repeat calls agree, and
// different seeds give different assignments.
func TestPlaceDeterministic(t *testing.T) {
	ids := []string{"c", "a", "b"}
	p1 := PlaceReplicas(42, 64, 1, ids)
	p2 := PlaceReplicas(42, 64, 1, []string{"b", "c", "a"})
	if !reflect.DeepEqual(p1, p2) {
		t.Fatal("placement depends on node-ID order")
	}
	p3 := PlaceReplicas(43, 64, 1, ids)
	if reflect.DeepEqual(p1, p3) {
		t.Fatal("different seeds gave identical 64-shard placement")
	}
	counts := map[string]int{}
	for _, reps := range p1 {
		counts[reps[0]]++
	}
	for _, id := range ids {
		if counts[id] == 0 {
			t.Fatalf("node %s owns no shards out of 64", id)
		}
	}
}

// TestEmptyAndUnroutableBaskets covers the edges: queries before the first
// publish fail with ErrNoSnapshot, and rules with empty antecedents are
// dropped exactly as the single-node index drops them.
func TestEmptyAndUnroutableBaskets(t *testing.T) {
	opt := Options{Shards: 8}
	c := mustCluster(t, 2, opt)
	if _, err := c.Router.Recommend([]itemset.Item{1, 2}, 5); err != serve.ErrNoSnapshot {
		t.Fatalf("pre-publish Recommend: got %v, want ErrNoSnapshot", err)
	}

	rs := synthRules(100, 30, 6)
	rs = append(rs, rules.Rule{Antecedent: nil, Consequent: itemset.New(1), Confidence: 1})
	if _, err := c.Router.Publish(rs, true); err != nil {
		t.Fatalf("publish: %v", err)
	}
	srv := singleNode(t, rs, opt)
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 30; i++ {
		assertMatch(t, c, srv, randBasket(rng, 30), 10, "with unroutable rule")
	}
}
