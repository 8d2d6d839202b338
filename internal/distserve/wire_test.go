package distserve

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"parapriori/internal/itemset"
	"parapriori/internal/rules"
	"parapriori/internal/serve"
)

var updateWire = flag.Bool("update", false, "rewrite testdata/wire.golden")

const wireGolden = "testdata/wire.golden"

// wireRules is the wire golden's rule set: seven groups over items 1–7,
// measures derived from counts over 30 transactions, so most floats need
// their full shortest encoding and a lossy codec would show.
func wireRules() []rules.Rule {
	const n = 30.0
	mk := func(ant, cons []itemset.Item, count int64, antCount, consCount float64) rules.Rule {
		sup := float64(count) / n
		conf := float64(count) / antCount
		return rules.Rule{
			Antecedent: itemset.New(ant...),
			Consequent: itemset.New(cons...),
			Count:      count,
			Support:    sup,
			Confidence: conf,
			Lift:       conf / (consCount / n),
			Leverage:   sup - antCount/n*consCount/n,
		}
	}
	I := func(items ...itemset.Item) []itemset.Item { return items }
	return []rules.Rule{
		mk(I(1), I(2), 7, 11, 13),
		mk(I(1), I(3), 5, 11, 9),
		mk(I(2), I(3), 4, 13, 9),
		mk(I(1, 2), I(3), 3, 7, 9),
		mk(I(1, 2), I(4, 6), 2, 7, 3),
		mk(I(4), I(5), 6, 8, 10),
		mk(I(5), I(4), 6, 10, 8),
		mk(I(6), I(1), 3, 4, 11),
		mk(I(3, 6), I(7), 2, 3, 5),
	}
}

// wireRulesV2 is the delta publish's rule set: group {5} vanishes, group
// {1} changes, group {8} appears.
func wireRulesV2() []rules.Rule {
	var out []rules.Rule
	for _, r := range wireRules() {
		switch {
		case r.Antecedent.Equal(itemset.New(5)):
			continue
		case r.Antecedent.Equal(itemset.New(1)):
			r.Confidence *= 0.9
		}
		out = append(out, r)
	}
	return append(out, rules.Rule{
		Antecedent: itemset.New(8), Consequent: itemset.New(9),
		Count: 4, Support: 4.0 / 30, Confidence: 4.0 / 6, Lift: 4.0 / 6 / (7.0 / 30), Leverage: 4.0/30 - 6.0/30*7.0/30,
	})
}

// recordingClient remembers every prepare the router sends through it.
type recordingClient struct {
	Client
	mu       sync.Mutex
	prepares []PrepareRequest
}

func (c *recordingClient) Prepare(ctx context.Context, req PrepareRequest) error {
	c.mu.Lock()
	c.prepares = append(c.prepares, req)
	c.mu.Unlock()
	return c.Client.Prepare(ctx, req)
}

// take returns the prepares sent since the last take.
func (c *recordingClient) take() []PrepareRequest {
	c.mu.Lock()
	defer c.mu.Unlock()
	sent := c.prepares
	c.prepares = nil
	return sent
}

// wireBody is one pinned body: its bytes, and the in-process value that
// decoding them must reproduce.
type wireBody struct {
	name string
	body []byte
	want any // decoding body into a new value of want's type must give want
}

// get serves path on h and returns the 200 body.
func get(t *testing.T, h http.Handler, path string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d %s", path, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// wireBodies builds every body the golden pins, each beside its in-process
// value: a node's /recommend (hit, no match) and /rules, a router's
// /recommend (full, partial, no match), and the /shard/prepare bodies
// HTTPClient sends for a full publish and for a delta with removals.
func wireBodies(t *testing.T) []wireBody {
	var out []wireBody

	// One node holding every group of the rule set on shard 0.
	node := NewNode("wire", serve.Options{})
	t.Cleanup(node.Close)
	req := PrepareRequest{Gen: 1, Full: true, Owned: []int{0}}
	for _, g := range groupRules(wireRules()) {
		req.Upserts = append(req.Upserts, GroupUpdate{Shard: 0, Rules: g.Rules})
	}
	if err := node.Prepare(req); err != nil {
		t.Fatal(err)
	}
	if err := node.Commit(1); err != nil {
		t.Fatal(err)
	}
	nh := NodeHandler(node)
	for _, q := range []struct {
		name   string
		basket []itemset.Item
	}{{"node-recommend-hit", []itemset.Item{6, 3, 2, 1}}, {"node-recommend-miss", []itemset.Item{9}}} {
		rs, gen, err := node.Server().RecommendTraced(q.basket, 4, "")
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, wireBody{q.name, get(t, nh, "/recommend?items="+itemsQuery(q.basket)+"&k=4"),
			&serve.Answer{Generation: gen, Basket: itemset.New(q.basket...), Rules: rs}})
	}
	type rulesPage struct {
		Generation uint64       `json:"generation"`
		Total      int          `json:"total"`
		Rules      []rules.Rule `json:"rules"`
	}
	var page []rules.Rule
	for _, r := range node.Server().Index().All() {
		if r.Antecedent.Contains(4) || r.Consequent.Contains(4) {
			page = append(page, r)
		}
	}
	out = append(out, wireBody{"node-rules", get(t, nh, "/rules?item=4&limit=3"),
		&rulesPage{Generation: 1, Total: len(wireRules()), Rules: page[:3]}})

	// A three-node router whose clients record the prepares they carry.
	opt := Options{Shards: 8}.WithDefaults()
	clients := make([]Client, 3)
	recs := make([]*recordingClient, 3)
	for i := range recs {
		n := NewNode(fmt.Sprintf("node%02d", i), opt.Node)
		t.Cleanup(n.Close)
		recs[i] = &recordingClient{Client: &LocalClient{node: n}}
		clients[i] = recs[i]
	}
	router, err := NewRouter(clients, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := router.Publish(wireRules(), true); err != nil {
		t.Fatal(err)
	}
	if _, err := router.Publish(wireRulesV2(), false); err != nil {
		t.Fatal(err)
	}
	rh := router.Handler(nil)
	full := []itemset.Item{8, 6, 3, 2, 1, 4}
	down := recs[router.replicas[opt.shardOf(1)][0]].Client.(*LocalClient)
	for _, q := range []struct {
		name   string
		basket []itemset.Item
		down   bool
	}{
		{"router-recommend-full", full, false},
		{"router-recommend-partial", full, true},
		{"router-recommend-empty", []itemset.Item{9}, false},
	} {
		down.SetDown(q.down)
		body := get(t, rh, "/recommend?items="+itemsQuery(q.basket)+"&k=5")
		res, err := router.Recommend(q.basket, 5)
		if err != nil {
			t.Fatal(err)
		}
		if res.Partial != q.down {
			t.Fatalf("%s: partial %v", q.name, res.Partial)
		}
		out = append(out, wireBody{q.name, body, res})
	}
	down.SetDown(false)

	// The bodies HTTPClient posts for a full prepare and for a delta
	// prepare that carries removals, captured by a node stand-in.
	var mu sync.Mutex
	var posted []byte
	sink := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		posted = body
		mu.Unlock()
		serve.WriteJSON(w, http.StatusOK, map[string]any{})
	}))
	t.Cleanup(sink.Close)
	hc := NewHTTPClient(sink.URL, 0)
	var sent []string
	for _, rc := range recs {
		if len(rc.prepares) != 2 {
			t.Fatalf("%s got %d prepares, want 2", rc.ID(), len(rc.prepares))
		}
		for i, name := range []string{"prepare-full", "prepare-delta"} {
			req := rc.prepares[i]
			if slices.Contains(sent, name) || (name == "prepare-delta" && len(req.Removes) == 0) {
				continue
			}
			if err := hc.Prepare(context.Background(), req); err != nil {
				t.Fatal(err)
			}
			sent = append(sent, name)
			mu.Lock()
			out = append(out, wireBody{name, posted, &req})
			mu.Unlock()
		}
	}
	if len(sent) != 2 {
		t.Fatalf("captured prepares %v, want a full one and a delta with removals", sent)
	}
	return out
}

func itemsQuery(basket []itemset.Item) string {
	s := make([]string, len(basket))
	for i, it := range basket {
		s[i] = fmt.Sprint(it)
	}
	return strings.Join(s, ",")
}

// TestWireGolden pins the exact bytes of every serving wire body in
// testdata/wire.golden, and requires each body to decode to the in-process
// value it was made from — float bits included, and a nil rule list for
// "no matches".
func TestWireGolden(t *testing.T) {
	bodies := wireBodies(t)
	var buf bytes.Buffer
	for _, b := range bodies {
		fmt.Fprintf(&buf, "-- %s (%d bytes)\n", b.name, len(b.body))
		buf.Write(b.body)
		buf.WriteByte('\n')
	}
	if *updateWire {
		if err := os.WriteFile(wireGolden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(wireGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Errorf("wire bodies differ from %s:\n got\n%s\nwant\n%s", wireGolden, buf.Bytes(), golden)
	}

	var mu sync.Mutex
	var replay []byte
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		w.Write(replay)
	}))
	t.Cleanup(node.Close)
	hc := NewHTTPClient(node.URL, 0)
	for _, b := range bodies {
		got := reflect.New(reflect.TypeOf(b.want).Elem()).Interface()
		if err := json.Unmarshal(b.body, got); err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		switch a := got.(type) {
		case *serve.Answer:
			// A node's answer is read by HTTPClient.Recommend, which must
			// hand back exactly what the node's own server returned.
			mu.Lock()
			replay = b.body
			mu.Unlock()
			rs, gen, err := hc.Recommend(time.Time{}, a.Basket, 4, "")
			if err != nil {
				t.Fatalf("%s: %v", b.name, err)
			}
			a.Rules, a.Generation = rs, gen
		case *Result:
			if len(a.Rules) == 0 {
				a.Rules = nil // read as HTTPClient.Recommend reads a node's answer
			}
		}
		if !reflect.DeepEqual(got, b.want) {
			t.Errorf("%s decodes to\n%+v\nwant\n%+v", b.name, got, b.want)
		}
	}
}
