package distserve

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"parapriori/internal/itemset"
	"parapriori/internal/obsv"
	"parapriori/internal/rules"
	"parapriori/internal/serve"
)

// TestStragglerExemplarResolvesAcrossTiers is the distributed half of the
// exemplar-linkage property: a slow query caused by one straggling node must
// produce a router-side latency exemplar whose fan-out node set names the
// straggler and whose span ID resolves in the router's flight ring to the
// request span and its fan-out legs — and, through the propagated link, in
// the straggler node's own flight ring to the causal cache-miss span.
func TestStragglerExemplarResolvesAcrossTiers(t *testing.T) {
	opt := Options{Shards: 8}
	c := mustCluster(t, 3, opt)
	if _, err := c.Router.Publish(synthRules(200, 40, 7), true); err != nil {
		t.Fatalf("publish: %v", err)
	}

	// Background traffic so the slow query stands out as the slowest.
	for i := 0; i < 6; i++ {
		if _, err := c.Router.Recommend([]itemset.Item{1, 2}, 5); err != nil {
			t.Fatalf("warm recommend: %v", err)
		}
	}

	// The seeded slow query: a basket nobody asked before, with one of its
	// owner nodes straggling.  R=1 means no alternate replica can steal the
	// leg, so the answer waits out the injected delay.
	slowBasket := []itemset.Item{3, 7, 9}
	owners := make(map[string]bool)
	for _, it := range itemset.New(slowBasket...) {
		s := c.Router.Options().shardOf(it)
		for _, id := range c.Router.Replicas()[s] {
			owners[id] = true
		}
	}
	var straggler string
	for id := range owners {
		if straggler == "" || id < straggler {
			straggler = id
		}
	}
	const delay = 40 * time.Millisecond
	clientOf(t, c, straggler).SetDelay(delay)
	if _, err := c.Router.Recommend(slowBasket, 5); err != nil {
		t.Fatalf("slow recommend: %v", err)
	}
	clientOf(t, c, straggler).SetDelay(0)

	exs := c.Router.Metrics().Exemplars
	if len(exs) == 0 {
		t.Fatal("no exemplars recorded")
	}
	slowest := exs[0]
	for _, e := range exs[1:] {
		if e.LatencyUs > slowest.LatencyUs {
			slowest = e
		}
	}
	if slowest.LatencyUs < delay.Microseconds() {
		t.Fatalf("slowest exemplar %dµs, want at least the injected %v", slowest.LatencyUs, delay)
	}
	if len(slowest.Nodes) == 0 {
		t.Fatal("slowest exemplar carries no fan-out node set")
	}
	if !sort.StringsAreSorted(slowest.Nodes) {
		t.Errorf("exemplar node set %v is not sorted", slowest.Nodes)
	}
	hasStraggler := false
	for _, id := range slowest.Nodes {
		if id == straggler {
			hasStraggler = true
		}
	}
	if !hasStraggler {
		t.Errorf("exemplar node set %v does not name the straggler %s", slowest.Nodes, straggler)
	}

	// Tier one: the span ID resolves in the router's own flight ring to the
	// request span and at least one fan-out leg addressed to the straggler.
	rt := c.Router.Flight().Trace()
	var reqSpan *obsv.Span
	fanoutToStraggler := false
	for i := range rt.Spans {
		sp := &rt.Spans[i]
		if sp.Cat != obsv.CatRequest {
			continue
		}
		if v, ok := sp.Arg("link"); !ok || v != slowest.SpanID {
			continue
		}
		switch sp.Name {
		case "recommend":
			reqSpan = sp
		case "fanout":
			if node, _ := sp.Arg("node"); node == straggler {
				fanoutToStraggler = true
			}
		}
	}
	if reqSpan == nil {
		t.Fatalf("exemplar span %q does not resolve to a request span in the router ring (%d spans)",
			slowest.SpanID, len(rt.Spans))
	}
	if reqSpan.Dur() < delay.Seconds() {
		t.Errorf("router request span lasted %.6fs, want at least %v", reqSpan.Dur(), delay)
	}
	if !fanoutToStraggler {
		t.Errorf("no fan-out span for link %q addressed to straggler %s in the router ring",
			slowest.SpanID, straggler)
	}

	// Tier two: the same link resolves in the straggler node's flight ring
	// to the causal cache-miss span (a fresh basket misses the node cache).
	var nodeRing *obsv.Trace
	for _, n := range c.Nodes {
		if n.ID() == straggler {
			nodeRing = n.Server().Flight().Trace()
		}
	}
	if nodeRing == nil {
		t.Fatalf("straggler %s not found in cluster nodes", straggler)
	}
	var nodeSpan *obsv.Span
	for i := range nodeRing.Spans {
		sp := &nodeRing.Spans[i]
		if sp.Cat != obsv.CatRequest {
			continue
		}
		if v, ok := sp.Arg("link"); ok && v == slowest.SpanID {
			nodeSpan = sp
			break
		}
	}
	if nodeSpan == nil {
		t.Fatalf("link %q does not resolve in straggler %s's flight ring (%d spans)",
			slowest.SpanID, straggler, len(nodeRing.Spans))
	}
	if v, _ := nodeSpan.Arg("cache"); v != "miss" {
		t.Errorf("straggler's resolved span cache = %q, want miss", v)
	}
}

// TestRouterFlightSmoke hammers a real-HTTP router with concurrent queries
// and a delta publish while polling /debug/flight, checking every dump is
// well-formed JSON under load (the CI race job runs this with -race).  When
// FLIGHT_DUMP is set, the final dump is written there so CI can upload it
// as an artifact.
func TestRouterFlightSmoke(t *testing.T) {
	v1 := synthRules(200, 40, 30)
	v2 := mutate(v1)
	router, _ := httpFleet(t, 2, Options{Shards: 16})
	if _, err := router.Publish(v1, true); err != nil {
		t.Fatalf("publish: %v", err)
	}
	front := httptest.NewServer(router.Handler(func() ([]rules.Rule, error) { return v2, nil }))
	t.Cleanup(front.Close)

	get := func(path string) ([]byte, int, error) {
		resp, err := front.Client().Get(front.URL + path)
		if err != nil {
			return nil, 0, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return body, resp.StatusCode, err
	}

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	fail := func(format string, args ...any) {
		select {
		case errc <- fmt.Errorf(format, args...):
		default:
		}
	}

	const workers, queries = 4, 30
	for w := 0; w < workers; w++ {
		wg.Add(1)
		rng := rand.New(rand.NewSource(int64(100 + w)))
		baskets := make([][]itemset.Item, queries)
		for i := range baskets {
			baskets[i] = randBasket(rng, 40)
		}
		go func(baskets [][]itemset.Item) {
			defer wg.Done()
			for _, b := range baskets {
				items := make([]string, len(b))
				for i, it := range b {
					items[i] = fmt.Sprint(it)
				}
				body, code, err := get("/recommend?items=" + strings.Join(items, ",") + "&k=5")
				if err != nil {
					fail("recommend: %v", err)
					return
				}
				if code != http.StatusOK || !json.Valid(body) {
					fail("recommend: status %d, body %q", code, body)
					return
				}
			}
		}(baskets)
	}

	// The delta publish racing the queries: every answer must still be a
	// coherent generation (the coherence machinery's job, exercised here
	// purely as load while the flight ring records publish spans).
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := front.Client().Post(front.URL+"/reload", "", nil)
		if err != nil {
			fail("reload: %v", err)
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			fail("reload: status %d, body %q", resp.StatusCode, body)
		}
	}()

	// The flight poller: every dump taken mid-flight must be valid Perfetto
	// JSON, in both formats.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			body, code, err := get("/debug/flight")
			if err != nil || code != http.StatusOK || !json.Valid(body) {
				fail("flight poll %d: status %d err %v valid=%t", i, code, err, json.Valid(body))
				return
			}
			if body, code, err = get("/debug/flight?format=attrib"); err != nil || code != http.StatusOK {
				fail("flight attrib poll %d: status %d err %v", i, code, err)
				return
			}
		}
	}()

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// The final dump must resolve the metrics exemplars' span IDs and be
	// valid JSON; CI uploads it as an artifact when FLIGHT_DUMP is set.
	dump, code, err := get("/debug/flight")
	if err != nil || code != http.StatusOK {
		t.Fatalf("final flight dump: status %d, err %v", code, err)
	}
	if !json.Valid(dump) {
		t.Fatalf("final flight dump is not valid JSON: %q", dump)
	}
	if !strings.Contains(string(dump), `"recommend"`) {
		t.Errorf("final flight dump records no recommend spans")
	}
	if path := os.Getenv("FLIGHT_DUMP"); path != "" {
		if err := os.WriteFile(path, dump, 0o644); err != nil {
			t.Fatalf("writing FLIGHT_DUMP %s: %v", path, err)
		}
		t.Logf("flight dump written to %s (%d bytes)", path, len(dump))
	}
}

// TestPromConformance gates every HTTP Prometheus exposition in the serving
// tier — single-node server, shard node, router — through the promlint-style
// checker: text format 0.0.4, HELP/TYPE before samples, suffix conventions,
// no duplicate families.
func TestPromConformance(t *testing.T) {
	rs := synthRules(200, 40, 30)

	// Single-node serve.Server exposition.
	srv := serve.NewServer(serve.Options{})
	t.Cleanup(srv.Close)
	srv.Publish(serve.NewIndex(rs, serve.Options{}))
	if _, err := srv.Recommend([]itemset.Item{1, 2}, 5); err != nil {
		t.Fatalf("recommend: %v", err)
	}
	single := httptest.NewServer(srv.Handler(nil))
	t.Cleanup(single.Close)

	// A fleet: node expositions plus the router's aggregated one.
	router, nodes := httpFleet(t, 2, Options{Shards: 16})
	if _, err := router.Publish(rs, true); err != nil {
		t.Fatalf("publish: %v", err)
	}
	if _, err := router.Recommend([]itemset.Item{1, 2, 3}, 5); err != nil {
		t.Fatalf("recommend: %v", err)
	}
	node := httptest.NewServer(NodeHandler(nodes[0]))
	t.Cleanup(node.Close)
	front := httptest.NewServer(router.Handler(nil))
	t.Cleanup(front.Close)

	for _, tc := range []struct {
		name string
		url  string
	}{
		{"server", single.URL},
		{"node", node.URL},
		{"router", front.URL},
	} {
		req, _ := http.NewRequest(http.MethodGet, tc.url+"/metrics", nil)
		req.Header.Set("Accept", "text/plain")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: read: %v", tc.name, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", tc.name, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != obsv.ContentType {
			t.Errorf("%s: Content-Type %q, want %q", tc.name, ct, obsv.ContentType)
		}
		if len(body) == 0 {
			t.Fatalf("%s: empty exposition", tc.name)
		}
		for _, finding := range obsv.LintProm(body) {
			t.Errorf("%s: %s", tc.name, finding)
		}
	}
}
