package distserve

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"parapriori/internal/serve"
)

// TestDistServeSmoke is the CI race gate for the distributed tier: a router
// and two in-process nodes serve concurrent basket queries while a delta
// publish cuts over mid-flight.  It runs in -short mode and must stay fast;
// its job is exercising every cross-goroutine edge (scatter-gather fan-out,
// two-phase publish, snapshot swap, metrics) under the race detector.
func TestDistServeSmoke(t *testing.T) {
	v1 := synthRules(150, 40, 20)
	v2 := mutate(v1)
	opt := Options{Shards: 16, Node: serve.Options{Workers: 2}}
	c := mustCluster(t, 2, opt)
	if _, err := c.Router.Publish(v1, true); err != nil {
		t.Fatalf("publish v1: %v", err)
	}

	srv1 := singleNode(t, v1, opt)
	srv2 := singleNode(t, v2, opt)

	const workers = 4
	const queriesPerWorker = 50
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < queriesPerWorker; i++ {
				basket := randBasket(rng, 40)
				got, err := c.Router.Recommend(basket, 10)
				if err != nil {
					errs[w] = err
					return
				}
				// Mid-publish a query may see either generation — but it
				// must exactly match one of them.
				want1, _ := srv1.Recommend(basket, 10)
				want2, _ := srv2.Recommend(basket, 10)
				if !reflect.DeepEqual(got.Rules, want1) && !reflect.DeepEqual(got.Rules, want2) {
					t.Errorf("worker %d: basket %v matches neither generation", w, basket)
					return
				}
			}
		}()
	}
	// The delta publish lands while the workers hammer the router.
	if _, err := c.Router.Publish(v2, false); err != nil {
		t.Fatalf("publish v2: %v", err)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}

	// Settled state: every answer is the v2 answer, and the fleet metrics
	// add up.
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 20; i++ {
		assertMatch(t, c, srv2, randBasket(rng, 40), 10, "settled")
	}
	m := c.Router.Metrics()
	if m.NodesUp != 2 || m.Generation != 2 {
		t.Fatalf("fleet metrics: %+v", m)
	}
	if m.Queries == 0 || m.FanoutPerQuery <= 0 {
		t.Fatalf("router counters did not move: %+v", m)
	}
}
