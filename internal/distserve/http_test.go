package distserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"parapriori/internal/itemset"
	"parapriori/internal/obsv"
	"parapriori/internal/rules"
	"parapriori/internal/serve"
)

// TestRouterMetricsPromNegotiation: the router's /metrics serves the
// Prometheus text exposition under Accept: text/plain — including per-node
// families gathered over the node protocol — and keeps JSON as the default.
// The router's flight ring holds its request, fan-out and publish spans.
func TestRouterMetricsPromNegotiation(t *testing.T) {
	router, _ := httpFleet(t, 2, Options{Shards: 16})
	if _, err := router.Publish(synthRules(200, 40, 30), true); err != nil {
		t.Fatalf("publish: %v", err)
	}
	if _, err := router.Recommend([]itemset.Item{1, 2, 3}, 5); err != nil {
		t.Fatalf("recommend: %v", err)
	}

	front := httptest.NewServer(router.Handler(nil))
	t.Cleanup(front.Close)
	req, _ := http.NewRequest(http.MethodGet, front.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	resp, err := front.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obsv.ContentType {
		t.Fatalf("Content-Type %q, want %q", ct, obsv.ContentType)
	}
	var sb strings.Builder
	if _, err := io.Copy(&sb, resp.Body); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"# TYPE parapriori_router_queries_total counter",
		"parapriori_router_queries_total 1\n",
		"parapriori_cluster_generation 1\n",
		"parapriori_nodes 2\n",
		"parapriori_nodes_up 2\n",
		"# TYPE parapriori_router_query_latency_seconds histogram",
		"parapriori_router_query_latency_seconds_count 1\n",
		`parapriori_node_up{node="`,
		`parapriori_node_queries_total{node="`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}

	// JSON stays the default view.
	jr, err := front.Client().Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Body.Close()
	var fm FleetMetrics
	if err := json.NewDecoder(jr.Body).Decode(&fm); err != nil {
		t.Fatalf("JSON view: %v", err)
	}
	if fm.Queries != 1 || fm.NumNodes != 2 {
		t.Fatalf("JSON view: %+v", fm)
	}

	// Span census: one request span, ≥1 fan-out span, prepare + commit.
	tr := router.flight.Trace()
	var reqs, fans, preps, commits int
	for _, sp := range tr.Spans {
		switch {
		case sp.Cat == obsv.CatRequest && sp.Name == "recommend":
			reqs++
		case sp.Cat == obsv.CatRequest && sp.Name == "fanout":
			fans++
		case sp.Cat == obsv.CatPublish && sp.Name == "prepare":
			preps++
		case sp.Cat == obsv.CatPublish && sp.Name == "commit":
			commits++
		}
	}
	if reqs != 1 || fans < 1 || preps != 1 || commits != 1 {
		t.Fatalf("spans: %d recommend (want 1), %d fanout (want ≥1), %d prepare, %d commit (want 1 each)",
			reqs, fans, preps, commits)
	}
}

// httpFleet spins up n node processes as httptest servers and a router
// driving them over real HTTP.
func httpFleet(t *testing.T, n int, opt Options) (*Router, []*Node) {
	t.Helper()
	opt = opt.WithDefaults()
	clients := make([]Client, n)
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		node := NewNode(fmt.Sprintf("httpnode%02d", i), opt.Node)
		ts := httptest.NewServer(NodeHandler(node))
		t.Cleanup(ts.Close)
		t.Cleanup(node.Close)
		nodes[i] = node
		clients[i] = NewHTTPClient(ts.URL, 0)
	}
	r, err := NewRouter(clients, opt)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	return r, nodes
}

// TestHTTPEndToEnd runs the full protocol over real HTTP — publish, delta
// publish, scatter-gather queries through the router's own HTTP handler —
// and checks the answers stay bit-identical to the single-node baseline.
// JSON's shortest-round-trip float encoding makes that exactness possible.
func TestHTTPEndToEnd(t *testing.T) {
	v1 := synthRules(200, 40, 30)
	v2 := mutate(v1)
	opt := Options{Shards: 16}
	router, _ := httpFleet(t, 2, opt)

	if _, err := router.Publish(v1, true); err != nil {
		t.Fatalf("publish over HTTP: %v", err)
	}

	// The reload callback flips to v2 — exercised through POST /reload.
	current := v1
	front := httptest.NewServer(router.Handler(func() ([]rules.Rule, error) { return current, nil }))
	t.Cleanup(front.Close)

	queryFront := func(basket []itemset.Item, k int) ([]rules.Rule, map[string]any) {
		t.Helper()
		items := make([]string, len(basket))
		for i, it := range basket {
			items[i] = strconv.Itoa(int(it))
		}
		resp, err := http.Get(front.URL + "/recommend?items=" + strings.Join(items, ",") + "&k=" + strconv.Itoa(k))
		if err != nil {
			t.Fatalf("GET /recommend: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /recommend: HTTP %d", resp.StatusCode)
		}
		var body Result
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("decode /recommend: %v", err)
		}
		if body.Partial {
			t.Fatalf("unexpected partial over HTTP")
		}
		if len(body.Rules) == 0 {
			body.Rules = nil // [] on the wire is the in-process nil
		}
		return body.Rules, map[string]any{"generation": body.Generation}
	}

	srv1 := singleNode(t, v1, opt)
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 25; i++ {
		basket := randBasket(rng, 40)
		want, _ := srv1.Recommend(basket, 10)
		got, meta := queryFront(basket, 10)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("HTTP result mismatch for %v:\n got %v\n want %v", basket, got, want)
		}
		if meta["generation"].(uint64) != 1 {
			t.Fatalf("generation %v, want 1", meta["generation"])
		}
	}

	// Delta publish via POST /reload.
	current = v2
	resp, err := http.Post(front.URL+"/reload", "application/json", nil)
	if err != nil {
		t.Fatalf("POST /reload: %v", err)
	}
	var stats PublishStats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatalf("decode /reload: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || stats.Gen != 2 || stats.Full {
		t.Fatalf("reload: HTTP %d, stats %+v", resp.StatusCode, stats)
	}

	srv2 := singleNode(t, v2, opt)
	for i := 0; i < 25; i++ {
		basket := randBasket(rng, 40)
		want, _ := srv2.Recommend(basket, 10)
		got, _ := queryFront(basket, 10)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("post-reload HTTP mismatch for %v", basket)
		}
	}

	// Control-plane and observability endpoints respond sensibly.
	for _, path := range []string{"/healthz", "/metrics", "/placement"} {
		resp, err := http.Get(front.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		var v map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("decode %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d (%v)", path, resp.StatusCode, v)
		}
	}
	var fm FleetMetrics
	mresp, err := http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	if err := json.NewDecoder(mresp.Body).Decode(&fm); err != nil {
		t.Fatalf("decode fleet metrics: %v", err)
	}
	mresp.Body.Close()
	if fm.NodesUp != 2 || fm.Generation != 2 || fm.NumRules != len(serveRules(v2)) {
		t.Fatalf("fleet metrics over HTTP: %+v", fm)
	}
}

// serveRules mirrors the index's routable-rule filter: groups with empty
// antecedents never land on any shard.
func serveRules(rs []rules.Rule) []rules.Rule {
	var out []rules.Rule
	for _, r := range rs {
		if len(r.Antecedent) > 0 {
			out = append(out, r)
		}
	}
	return out
}

// TestControlPlaneBodyLimits: the two control-plane decoders read a bounded
// body.  One byte over the cap is a 413 with a JSON error naming the
// endpoint and the cap, a body at the cap still decodes, and garbage stays
// a 400.
func TestControlPlaneBodyLimits(t *testing.T) {
	defer func(p, c int64) { maxPrepareBody, maxCommitBody = p, c }(maxPrepareBody, maxCommitBody)
	maxPrepareBody, maxCommitBody = 512, 64

	node := NewNode("n0", serve.Options{})
	defer node.Close()
	ts := httptest.NewServer(NodeHandler(node))
	defer ts.Close()

	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		var e struct {
			Error string `json:"error"`
		}
		if resp.StatusCode != http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatalf("POST %s: HTTP %d with a non-JSON body: %v", path, resp.StatusCode, err)
			}
		}
		return resp.StatusCode, e.Error
	}
	// Valid JSON padded with trailing whitespace inside the value's
	// brackets, so the decoder has to read past the cap to finish it.
	padded := func(prefix, suffix string, n int64) string {
		return prefix + strings.Repeat(" ", int(n)-len(prefix)-len(suffix)) + suffix
	}
	for _, tc := range []struct {
		path, what     string
		limit          int64
		prefix, suffix string
	}{
		{"/shard/prepare", "prepare", maxPrepareBody, `{"generation":1,"full":true,"owned":[0`, `]}`},
		{"/shard/commit", "commit", maxCommitBody, `{"generation":1`, `}`},
	} {
		code, msg := post(tc.path, padded(tc.prefix, tc.suffix, tc.limit+1))
		if want := fmt.Sprintf("%s: body exceeds %d bytes", tc.what, tc.limit); code != http.StatusRequestEntityTooLarge || msg != want {
			t.Errorf("%s over the cap: HTTP %d %q, want 413 %q", tc.path, code, msg, want)
		}
		if code, msg := post(tc.path, padded(tc.prefix, tc.suffix, tc.limit)); code != http.StatusOK {
			t.Errorf("%s at the cap: HTTP %d %q, want 200", tc.path, code, msg)
		}
		if code, msg := post(tc.path, "not json"); code != http.StatusBadRequest || !strings.HasPrefix(msg, tc.what+": ") {
			t.Errorf("%s garbage: HTTP %d %q, want 400", tc.path, code, msg)
		}
	}
}

// FuzzRecommendQuery drives arbitrary items, k and link strings through
// /recommend on a single server and on a one-node router.  Each must answer
// 200 or 400 with a JSON body, 400 exactly when serve.ParseRecommendQuery
// refuses the query, and a 200's rules must be Index.Recommend's for the
// parsed basket under the server's K clamp.
func FuzzRecommendQuery(f *testing.F) {
	rs := synthRules(200, 40, 30)
	opt := Options{Shards: 4}.WithDefaults()
	ix := serve.NewIndex(rs, opt.Node)
	single := serve.NewServer(opt.Node)
	f.Cleanup(single.Close)
	single.Publish(ix)
	c, err := NewCluster(1, opt)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(c.Close)
	if _, err := c.Router.Publish(rs, true); err != nil {
		f.Fatal(err)
	}
	handlers := []struct {
		name string
		h    http.Handler
	}{{"single", single.Handler(nil)}, {"router", c.Router.Handler(nil)}}

	f.Add("1,2,3", "5", "")
	f.Add(" 3 , 1,2,2 ", "", "r-1.x_y")
	f.Add("", "", "")
	f.Add("1,,2", "3", "")
	f.Add("4294967297", "", "")
	f.Add("7", "-1", "a b")
	f.Add("7,9", "+0", "")
	f.Add("39", "99999999999999999999", "")
	f.Add("2147483647,0", "1000", "")
	f.Fuzz(func(t *testing.T, items, k, link string) {
		q := url.Values{"items": {items}, "k": {k}, "link": {link}}
		basket, kk, parseErr := serve.ParseRecommendQuery(q)
		for _, tier := range handlers {
			rec := httptest.NewRecorder()
			tier.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/recommend?"+q.Encode(), nil))
			body := rec.Body.Bytes()
			if !json.Valid(body) {
				t.Fatalf("%s %v: HTTP %d with a non-JSON body %q", tier.name, q, rec.Code, body)
			}
			switch {
			case rec.Code == http.StatusBadRequest && parseErr != nil:
				continue
			case rec.Code != http.StatusOK || parseErr != nil:
				t.Fatalf("%s %v: HTTP %d %s (decoder error %v)", tier.name, q, rec.Code, body, parseErr)
			}
			var resp serve.Answer
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatalf("%s %v: %v", tier.name, q, err)
			}
			if kk <= 0 {
				kk = serve.DefaultK
			}
			want := ix.Recommend(itemset.New(basket...), min(kk, serve.MaxK))
			if want == nil {
				want = []rules.Rule{} // "no matches" is [] on the wire
			}
			if !reflect.DeepEqual(resp.Rules, want) {
				t.Fatalf("%s %v:\n got %v\nwant %v", tier.name, q, resp.Rules, want)
			}
		}
	})
}

// Prepare bodies naming groups the router could never send.  A node once
// staged and committed each of them: it stored a group under its first
// rule's antecedent whatever the other rules held, stored one antecedent
// twice, ignored a removal it did not own, or let a delta move its shards.
var malformedPrepares = []struct{ name, body string }{
	{"unsorted antecedent", `{"generation":2,"owned":[0,1],"upserts":[{"shard":0,"rules":[{"antecedent":[5,3],"consequent":[7],"count":1,"support":0.1,"confidence":0.5,"lift":1,"leverage":0}]}]}`},
	{"repeated item", `{"generation":2,"owned":[0,1],"upserts":[{"shard":0,"rules":[{"antecedent":[3,3],"consequent":[7],"count":1,"support":0.1,"confidence":0.5,"lift":1,"leverage":0}]}]}`},
	{"foreign rule in a group", `{"generation":2,"owned":[0,1],"upserts":[{"shard":0,"rules":[{"antecedent":[3],"consequent":[7],"count":1,"support":0.1,"confidence":0.5,"lift":1,"leverage":0},{"antecedent":[4],"consequent":[8],"count":1,"support":0.1,"confidence":0.5,"lift":1,"leverage":0}]}],"removes":[{"shard":0,"antecedent":[4]}]}`},
	{"empty antecedent", `{"generation":2,"owned":[0,1],"upserts":[{"shard":0,"rules":[{"antecedent":[],"consequent":[7]}]}]}`},
	{"empty consequent", `{"generation":2,"owned":[0,1],"upserts":[{"shard":0,"rules":[{"antecedent":[3],"consequent":[]}]}]}`},
	{"unsorted consequent", `{"generation":2,"owned":[0,1],"upserts":[{"shard":0,"rules":[{"antecedent":[3],"consequent":[8,7]}]}]}`},
	{"consequent overlaps antecedent", `{"generation":2,"owned":[0,1],"upserts":[{"shard":0,"rules":[{"antecedent":[3,5],"consequent":[5]}]}]}`},
	{"unsorted removal", `{"generation":2,"owned":[0,1],"removes":[{"shard":0,"antecedent":[4,2]}]}`},
	{"upserts out of antecedent order", `{"generation":2,"owned":[0,1],"upserts":[{"shard":0,"rules":[{"antecedent":[5],"consequent":[7],"count":1,"support":0.1,"confidence":0.5,"lift":1,"leverage":0}]},{"shard":1,"rules":[{"antecedent":[3],"consequent":[7],"count":1,"support":0.1,"confidence":0.5,"lift":1,"leverage":0}]}]}`},
	{"repeated antecedent", `{"generation":2,"owned":[0,1],"upserts":[{"shard":0,"rules":[{"antecedent":[3],"consequent":[7],"count":1,"support":0.1,"confidence":0.5,"lift":1,"leverage":0}]},{"shard":1,"rules":[{"antecedent":[3],"consequent":[8],"count":1,"support":0.1,"confidence":0.5,"lift":1,"leverage":0}]}]}`},
	{"removes out of antecedent order", `{"generation":2,"owned":[0,1],"removes":[{"shard":0,"antecedent":[4]},{"shard":0,"antecedent":[2]}]}`},
	{"removal on an unowned shard", `{"generation":2,"owned":[0,1],"removes":[{"shard":5,"antecedent":[3]}]}`},
	{"delta that moves shards", `{"generation":2,"owned":[0,2],"upserts":[{"shard":2,"rules":[{"antecedent":[3],"consequent":[7],"count":1,"support":0.1,"confidence":0.5,"lift":1,"leverage":0}]}]}`},
	{"full publish of an unsorted antecedent", `{"generation":2,"full":true,"owned":[0],"upserts":[{"shard":0,"rules":[{"antecedent":[5,3],"consequent":[]}]}]}`},
}

// TestPrepareRefusesMalformedGroups: Node.Prepare is the one check of a
// prepare, so each malformed body is a 409 over HTTP and an error in
// process, and the node goes on serving its committed generation.
func TestPrepareRefusesMalformedGroups(t *testing.T) {
	for _, tc := range malformedPrepares {
		t.Run(tc.name, func(t *testing.T) {
			node := controlPlaneNode(t)
			before := servedState(node)
			h := NodeHandler(node)
			for _, step := range []struct{ path, body string }{{"/shard/prepare", tc.body}, {"/shard/commit", `{"generation":2}`}} {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, step.path, strings.NewReader(step.body)))
				if rec.Code != http.StatusConflict {
					t.Errorf("%s: HTTP %d %s, want 409", step.path, rec.Code, rec.Body)
				}
			}
			var req PrepareRequest
			if err := json.Unmarshal([]byte(tc.body), &req); err != nil {
				t.Fatal(err)
			}
			if err := node.Prepare(req); err == nil {
				t.Error("Node.Prepare accepted the request")
			}
			if after := servedState(node); after != before {
				t.Errorf("serving changed:\nbefore %s\nafter  %s", before, after)
			}
		})
	}
}

// controlPlaneNode is a node serving generation 1 of a small rule set over
// shards 0 and 1.
func controlPlaneNode(tb testing.TB) *Node {
	node := NewNode("n0", serve.Options{})
	tb.Cleanup(node.Close)
	if err := node.Prepare(controlPlaneGen1()); err != nil {
		tb.Fatal(err)
	}
	if err := node.Commit(1); err != nil {
		tb.Fatal(err)
	}
	return node
}

func controlPlaneGen1() PrepareRequest {
	gen1 := PrepareRequest{Gen: 1, Full: true, Owned: []int{0, 1}}
	for i, g := range groupRules(synthRules(60, 12, 7)) {
		gen1.Upserts = append(gen1.Upserts, GroupUpdate{Shard: i % 2, Rules: g.Rules})
	}
	return gen1
}

// servedState renders what a node serves: its generation, shards and rule
// count, and its answers to a few baskets, among them those the malformed
// prepares once reached.
func servedState(node *Node) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "gen %d shards %v rules %d\n", node.Gen(), node.Shards(), node.NumRules())
	for _, b := range [][]itemset.Item{{1, 2, 3}, {0, 4, 5, 6, 7}, {8, 9, 10, 11}, {2}, {3, 5}, {3}, {4}} {
		rs, gen, err := node.Server().RecommendTraced(b, 5, "")
		fmt.Fprintf(&sb, "%v: %d %v %v\n", b, gen, rs, err)
	}
	return sb.String()
}

// checkGroupStore fails unless the node's groups are well formed, in
// strictly increasing antecedent order, and every rule the node serves
// sits in the group of its own antecedent.
func checkGroupStore(t *testing.T, node *Node) {
	t.Helper()
	node.mu.Lock()
	defer node.mu.Unlock()
	for i, g := range node.groups {
		if err := checkGroup(g.Rules); err != nil {
			t.Fatalf("group %d on shard %d: %v", i, g.Shard, err)
		}
		if i > 0 && node.groups[i-1].ant().Compare(g.ant()) >= 0 {
			t.Fatalf("group of %v stored after the group of %v", g.ant(), node.groups[i-1].ant())
		}
	}
	for _, r := range node.srv.Index().All() {
		i, found := slices.BinarySearchFunc(node.groups, r.Antecedent, func(g GroupUpdate, ant itemset.Itemset) int {
			return g.ant().Compare(ant)
		})
		if !found || !slices.ContainsFunc(node.groups[i].Rules, func(g rules.Rule) bool { return g.Consequent.Equal(r.Consequent) }) {
			t.Fatalf("served rule %v is in no group of its antecedent", r)
		}
	}
}

// FuzzControlPlaneBodies posts arbitrary bytes to a serving node's
// /shard/prepare and then /shard/commit.  Every answer is 200, 400, 409 or
// 413 and nothing panics; a prepare never changes what the node serves, and
// neither does a commit that is refused.  Once both are accepted, every
// served rule's itemsets are sets and the rule sits in the group of its own
// antecedent.
func FuzzControlPlaneBodies(f *testing.F) {
	prepareCap, commitCap := maxPrepareBody, maxCommitBody
	f.Cleanup(func() { maxPrepareBody, maxCommitBody = prepareCap, commitCap })
	maxPrepareBody, maxCommitBody = 4<<10, 64 // a 413 within the fuzzer's reach

	gen1 := controlPlaneGen1()
	wire := func(req PrepareRequest) []byte {
		raw, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	gen2 := gen1
	gen2.Gen, gen2.Full, gen2.Upserts = 2, false, gen1.Upserts[:3]
	f.Add(wire(gen2), []byte(`{"generation":2}`))
	f.Add(wire(PrepareRequest{Gen: 2, Owned: []int{1}, Removes: []GroupRef{{Shard: 1, Ant: itemset.New(3)}}}), []byte(`{"generation":3}`))
	f.Add([]byte(`{"generation":2,"owned":[0],"upserts":[{"shard":5,"rules":[]}]}`), []byte(`{"generation":2}`))
	f.Add([]byte(`{"generation":2,"owned":[0],"upserts":[{"shard":0,"rules":[]}]}`), []byte(`{"generation":1}`))
	f.Add([]byte(`{"generation":1,"full":true}`), []byte(`{"generation":0}`))
	f.Add([]byte(`not json`), []byte(`{"generation":"2"}`))
	f.Add([]byte(`{"generation":2,"full":true,"owned":[0],"upserts":[{"shard":0,"rules":[{"antecedent":[5,3],"consequent":[]}]}]}`), []byte(`{"generation":2} trailing`))
	f.Add([]byte(`{"generation":2,"owned":[0,1`+strings.Repeat(",1", 2100)+`]}`), []byte(`{"generation":2`+strings.Repeat(" ", 60)+`}`))
	for _, m := range malformedPrepares {
		f.Add([]byte(m.body), []byte(`{"generation":2}`))
	}
	f.Fuzz(func(t *testing.T, prepare, commit []byte) {
		node := controlPlaneNode(t)
		h := NodeHandler(node)
		before := servedState(node)
		accepted := 0
		for _, step := range []struct {
			path string
			body []byte
		}{{"/shard/prepare", prepare}, {"/shard/commit", commit}} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, step.path, bytes.NewReader(step.body)))
			switch rec.Code {
			case http.StatusOK, http.StatusBadRequest, http.StatusConflict, http.StatusRequestEntityTooLarge:
			default:
				t.Fatalf("%s %q: HTTP %d %s", step.path, step.body, rec.Code, rec.Body)
			}
			if !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("%s %q: HTTP %d with a non-JSON body %q", step.path, step.body, rec.Code, rec.Body)
			}
			after := servedState(node)
			if (rec.Code != http.StatusOK || step.path == "/shard/prepare") && after != before {
				t.Fatalf("%s %q: HTTP %d changed what the node serves:\nbefore %s\nafter  %s", step.path, step.body, rec.Code, before, after)
			}
			before = after
			if rec.Code == http.StatusOK {
				accepted++
			}
		}
		if accepted == 2 {
			checkGroupStore(t, node)
		}
	})
}
