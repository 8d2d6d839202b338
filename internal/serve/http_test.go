package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"parapriori/internal/itemset"
	"parapriori/internal/obsv"
	"parapriori/internal/rules"
)

func newTestServer(t *testing.T, reload func() (*Index, error)) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(Options{Workers: 2, CacheSize: 128})
	ts := httptest.NewServer(s.Handler(reload))
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func getJSON(t *testing.T, ts *httptest.Server, path string, out any) int {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", path, err)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", path, body, err)
		}
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, ts *httptest.Server, path string, out any) int {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(""))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: reading body: %v", path, err)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("POST %s: bad JSON %q: %v", path, body, err)
		}
	}
	return resp.StatusCode
}

func TestHealthzRoundTrip(t *testing.T) {
	s, ts := newTestServer(t, nil)
	var h struct {
		Status     string `json:"status"`
		Generation uint64 `json:"generation"`
	}
	if code := getJSON(t, ts, "/healthz", &h); code != http.StatusServiceUnavailable || h.Status != "empty" {
		t.Fatalf("empty server: code %d body %+v", code, h)
	}
	s.Publish(NewIndex(synthRules(50, 10, 1), Options{}))
	if code := getJSON(t, ts, "/healthz", &h); code != http.StatusOK || h.Status != "ok" || h.Generation != 1 {
		t.Fatalf("published server: code %d body %+v", code, h)
	}
}

func TestRecommendRoundTrip(t *testing.T) {
	rs := synthRules(200, 15, 2)
	s, ts := newTestServer(t, nil)

	var e struct {
		Error string `json:"error"`
	}
	if code := getJSON(t, ts, "/recommend?items=1,2", &e); code != http.StatusServiceUnavailable {
		t.Fatalf("pre-publish code %d", code)
	}

	s.Publish(NewIndex(rs, Options{}))
	for _, bad := range []string{"/recommend", "/recommend?items=", "/recommend?items=1,x", "/recommend?items=-4", "/recommend?items=1&k=-2", "/recommend?items=1&k=x"} {
		if code := getJSON(t, ts, bad, &e); code != http.StatusBadRequest {
			t.Fatalf("%s: code %d, want 400", bad, code)
		}
	}

	var resp Answer
	if code := getJSON(t, ts, "/recommend?items=3,1,2&k=5", &resp); code != http.StatusOK {
		t.Fatalf("code %d", code)
	}
	want, err := s.Recommend([]itemset.Item{1, 2, 3}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("fixture basket matches no rule")
	}
	if exp := (Answer{Generation: 1, Basket: itemset.New(1, 2, 3), Rules: want}); !reflect.DeepEqual(resp, exp) {
		t.Fatalf("HTTP answer %+v, direct call %+v", resp, exp)
	}
}

func TestRulesEndpointRoundTrip(t *testing.T) {
	rs := synthRules(120, 12, 4)
	s, ts := newTestServer(t, nil)
	s.Publish(NewIndex(rs, Options{}))

	var resp struct {
		Generation uint64       `json:"generation"`
		Total      int          `json:"total"`
		Rules      []rules.Rule `json:"rules"`
	}
	if code := getJSON(t, ts, "/rules?limit=10", &resp); code != http.StatusOK {
		t.Fatalf("code %d", code)
	}
	if resp.Total != len(rs) || len(resp.Rules) != 10 {
		t.Fatalf("total %d (want %d), page %d (want 10)", resp.Total, len(rs), len(resp.Rules))
	}
	// Item filter: every returned rule mentions the item.
	if code := getJSON(t, ts, "/rules?item=3&limit=1000", &resp); code != http.StatusOK {
		t.Fatalf("code %d", code)
	}
	for _, j := range resp.Rules {
		if !j.Antecedent.Contains(3) && !j.Consequent.Contains(3) {
			t.Fatalf("filtered rule does not mention item 3: %+v", j)
		}
	}
	var e struct{ Error string }
	if code := getJSON(t, ts, "/rules?limit=x", &e); code != http.StatusBadRequest {
		t.Fatalf("bad limit: code %d", code)
	}
	// A limit is the client's number: the first of these once sized a slice
	// and ran the process out of memory, the second panicked in makeslice.
	for _, limit := range []string{"2000000000", "4000000000000"} {
		if code := getJSON(t, ts, "/rules?limit="+limit, &resp); code != http.StatusOK {
			t.Fatalf("limit %s: code %d", limit, code)
		}
		if resp.Total != len(rs) || len(resp.Rules) != len(rs) {
			t.Fatalf("limit %s: total %d, page %d, want %d of both", limit, resp.Total, len(resp.Rules), len(rs))
		}
	}
	// An item past int32 is refused, not wrapped onto item 1.
	for _, path := range []string{"/rules?item=4294967297", "/recommend?items=4294967297"} {
		if code := getJSON(t, ts, path, &e); code != http.StatusBadRequest {
			t.Fatalf("%s: code %d, want 400", path, code)
		}
	}
}

func TestMetricsRoundTrip(t *testing.T) {
	s, ts := newTestServer(t, nil)
	s.Publish(NewIndex(synthRules(80, 10, 6), Options{}))
	for i := 0; i < 3; i++ {
		if _, err := s.Recommend([]itemset.Item{1, 2}, 5); err != nil {
			t.Fatal(err)
		}
	}
	var m Metrics
	if code := getJSON(t, ts, "/metrics", &m); code != http.StatusOK {
		t.Fatalf("code %d", code)
	}
	if m.Queries != 3 || m.CacheHits != 2 || m.CacheMisses != 1 {
		t.Fatalf("metrics: %+v", m)
	}
	if m.SnapshotGeneration != 1 || m.NumRules != 80 {
		t.Fatalf("snapshot metrics: %+v", m)
	}
	if m.P99LatencyMicros < m.P50LatencyMicros || m.P99LatencyMicros <= 0 {
		t.Fatalf("latency percentiles: %+v", m)
	}
}

// TestMetricsPromNegotiation: GET /metrics with a Prometheus-style Accept
// header returns the text exposition; bare GETs keep returning JSON.
func TestMetricsPromNegotiation(t *testing.T) {
	s := NewServer(Options{CacheSize: 128})
	ts := httptest.NewServer(s.Handler(nil))
	t.Cleanup(func() { ts.Close(); s.Close() })
	s.Publish(NewIndex(synthRules(80, 10, 6), Options{}))
	for i := 0; i < 3; i++ {
		if _, err := s.Recommend([]itemset.Item{1, 2}, 5); err != nil {
			t.Fatal(err)
		}
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obsv.ContentType {
		t.Fatalf("Content-Type %q, want %q", ct, obsv.ContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE parapriori_queries_total counter",
		"parapriori_queries_total 3\n",
		"parapriori_cache_hits_total 2\n",
		"# TYPE parapriori_query_latency_seconds histogram",
		"parapriori_query_latency_seconds_count 3\n",
		"parapriori_snapshot_generation 1\n",
		"parapriori_rules 80\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	// Sanity of the format: every non-comment line is "name[{labels}] value".
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if len(strings.Fields(line)) < 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}

	// Without the Accept header the JSON view is unchanged.
	var m Metrics
	if code := getJSON(t, ts, "/metrics", &m); code != http.StatusOK || m.Queries != 3 {
		t.Fatalf("JSON view: code %d metrics %+v", code, m)
	}

	// The flight ring holds one request span per query and the publish span.
	tr := s.Flight().Trace()
	reqs, pubs := 0, 0
	for _, sp := range tr.Spans {
		switch sp.Cat {
		case obsv.CatRequest:
			reqs++
			if sp.Name != "recommend" || sp.End < sp.Start {
				t.Errorf("bad request span %+v", sp)
			}
		case obsv.CatPublish:
			pubs++
		}
	}
	if reqs != 3 || pubs != 1 {
		t.Fatalf("spans: %d requests (want 3), %d publishes (want 1)", reqs, pubs)
	}
}

func TestReloadRoundTrip(t *testing.T) {
	reloads := 0
	reload := func() (*Index, error) {
		reloads++
		if reloads == 3 {
			return nil, fmt.Errorf("source went away")
		}
		return NewIndex(synthRules(60+reloads, 10, int64(reloads)), Options{}), nil
	}
	s, ts := newTestServer(t, reload)
	s.Publish(NewIndex(synthRules(50, 10, 99), Options{}))

	var e struct{ Error string }
	if code := getJSON(t, ts, "/reload", &e); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /reload: code %d, want 405", code)
	}
	var r struct {
		Generation uint64 `json:"generation"`
		NumRules   int    `json:"num_rules"`
	}
	if code := postJSON(t, ts, "/reload", &r); code != http.StatusOK || r.Generation != 2 || r.NumRules != 61 {
		t.Fatalf("first reload: code %d body %+v", code, r)
	}
	if code := postJSON(t, ts, "/reload", &r); code != http.StatusOK || r.Generation != 3 {
		t.Fatalf("second reload: code %d body %+v", code, r)
	}
	if code := postJSON(t, ts, "/reload", &e); code != http.StatusInternalServerError {
		t.Fatalf("failing reload: code %d, want 500", code)
	}
	if got := s.Metrics().SnapshotGeneration; got != 3 {
		t.Fatalf("failed reload changed the snapshot: generation %d", got)
	}

	// A server with no reload source refuses politely.
	_, ts2 := newTestServer(t, nil)
	if code := postJSON(t, ts2, "/reload", &e); code != http.StatusNotImplemented {
		t.Fatalf("nil reload: code %d, want 501", code)
	}
}

// TestServerSmoke is the hot-swap load test: ≥1000 concurrent /recommend
// requests race against two /reload hot swaps; every request must succeed,
// and the snapshot generation observed through /metrics must increase
// monotonically.  CI runs it under -race.
func TestServerSmoke(t *testing.T) {
	gen := atomic.Int64{}
	reload := func() (*Index, error) {
		n := gen.Add(1)
		return NewIndex(synthRules(2000, 100, n), Options{}), nil
	}
	s, ts := newTestServer(t, reload)
	first, _ := reload()
	s.Publish(first)

	const (
		clients   = 16
		perClient = 80 // 1280 queries total
	)
	var failures atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			<-start
			for i := 0; i < perClient; i++ {
				items := fmt.Sprintf("%d,%d,%d", rng.Intn(100), rng.Intn(100), rng.Intn(100))
				resp, err := ts.Client().Get(ts.URL + "/recommend?items=" + items + "&k=5")
				if err != nil {
					failures.Add(1)
					continue
				}
				if _, err := io.Copy(io.Discard, resp.Body); err != nil || resp.StatusCode != http.StatusOK {
					failures.Add(1)
				}
				resp.Body.Close()
			}
		}(c)
	}

	metricsGen := func() uint64 {
		var m Metrics
		if code := getJSON(t, ts, "/metrics", &m); code != http.StatusOK {
			t.Fatalf("/metrics code %d", code)
		}
		return m.SnapshotGeneration
	}

	close(start)
	gens := []uint64{metricsGen()}
	for swap := 0; swap < 2; swap++ { // two hot swaps while the clients hammer
		var r struct {
			Generation uint64 `json:"generation"`
		}
		if code := postJSON(t, ts, "/reload", &r); code != http.StatusOK {
			t.Fatalf("reload %d: code %d", swap, code)
		}
		gens = append(gens, metricsGen())
	}
	wg.Wait()

	if n := failures.Load(); n != 0 {
		t.Fatalf("%d of %d concurrent queries failed across hot swaps", n, clients*perClient)
	}
	for i := 1; i < len(gens); i++ {
		if gens[i] <= gens[i-1] {
			t.Fatalf("snapshot generation not monotonic through /metrics: %v", gens)
		}
	}
	var m Metrics
	getJSON(t, ts, "/metrics", &m)
	if m.Queries < clients*perClient {
		t.Fatalf("metrics lost queries: %d < %d", m.Queries, clients*perClient)
	}
	if m.SnapshotGeneration != 3 {
		t.Fatalf("final generation %d, want 3", m.SnapshotGeneration)
	}
}

// TestHandlerMethodDiscipline: non-GET on the read endpoints is rejected.
func TestHandlerMethodDiscipline(t *testing.T) {
	s, ts := newTestServer(t, nil)
	s.Publish(NewIndex(synthRules(10, 5, 8), Options{}))
	for _, path := range []string{"/recommend?items=1", "/rules", "/healthz", "/metrics"} {
		var e struct{ Error string }
		if code := postJSON(t, ts, path, &e); code != http.StatusMethodNotAllowed {
			t.Fatalf("POST %s: code %d, want 405", path, code)
		}
	}
}

// TestParseItems covers the query-string item parser directly.
func TestParseItems(t *testing.T) {
	got, err := parseItems(" 3 , 1,2 ")
	if err != nil || !reflect.DeepEqual(got, []itemset.Item{3, 1, 2}) {
		t.Fatalf("parseItems = %v, %v", got, err)
	}
	if got, err := parseItems("2147483647"); err != nil || got[0] != math.MaxInt32 {
		t.Fatalf("parseItems(MaxInt32) = %v, %v", got, err)
	}
	// 4294967297 is 1<<32 + 1: narrowed unchecked it would be served as item 1.
	for _, bad := range []string{"", "  ", "1,,2", "a", "1,-2", "2147483648", "4294967297", "1,4294967297"} {
		if _, err := parseItems(bad); err == nil {
			t.Fatalf("parseItems(%q) accepted", bad)
		}
	}
}
