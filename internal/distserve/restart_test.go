package distserve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"parapriori/internal/rules"
	"parapriori/internal/serve"
)

// restartFleet is a four-node, two-replica fleet over 16 shards whose nodes
// can be restarted empty and whose router can be replaced, in process or
// over HTTP, where each node sits behind its own server and a restart
// swaps the node behind the handler.
type restartFleet struct {
	opt     Options
	nodes   []*Node
	clients []*recordingClient
	router  *Router
	restart func(i int) // replaces node i by a new, empty one
}

func newRestartFleet(t *testing.T, transport string) *restartFleet {
	t.Helper()
	const n = 4
	f := &restartFleet{opt: Options{Shards: 16, Replicas: 2}.WithDefaults(), nodes: make([]*Node, n)}
	t.Cleanup(func() {
		for _, node := range f.nodes {
			node.Close()
		}
	})
	for i := range f.nodes {
		f.nodes[i] = NewNode(fmt.Sprintf("node%02d", i), f.opt.Node)
	}
	transports := make([]Client, n)
	switch transport {
	case "local":
		locals := make([]*LocalClient, n)
		for i, node := range f.nodes {
			locals[i] = &LocalClient{node: node}
			transports[i] = locals[i]
		}
		f.restart = func(i int) {
			old := f.nodes[i]
			f.nodes[i] = NewNode(old.ID(), f.opt.Node)
			locals[i].node = f.nodes[i]
			old.Close()
		}
	case "http":
		handlers := make([]atomic.Value, n)
		for i, node := range f.nodes {
			handlers[i].Store(NodeHandler(node))
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
				handlers[i].Load().(http.Handler).ServeHTTP(w, req)
			}))
			t.Cleanup(ts.Close)
			transports[i] = NewHTTPClient(ts.URL, 0)
		}
		f.restart = func(i int) {
			old := f.nodes[i]
			f.nodes[i] = NewNode(old.ID(), f.opt.Node)
			handlers[i].Store(NodeHandler(f.nodes[i]))
			old.Close()
		}
	default:
		t.Fatalf("transport %q", transport)
	}
	for _, c := range transports {
		f.clients = append(f.clients, &recordingClient{Client: c})
	}
	f.newRouter(t, nil)
	return f
}

// newRouter replaces the fleet's router by a new one over the same nodes,
// as a restarted router process starts.  A non-nil wrap wraps node i's
// client.
func (f *restartFleet) newRouter(t *testing.T, wrap func(i int, c Client) Client) {
	t.Helper()
	clients := make([]Client, len(f.clients))
	for i, c := range f.clients {
		clients[i] = c
		if wrap != nil {
			clients[i] = wrap(i, c)
		}
	}
	r, err := NewRouter(clients, f.opt)
	if err != nil {
		t.Fatal(err)
	}
	f.router = r
}

// ordinal returns the router's ordinal of fleet node i.
func (f *restartFleet) ordinal(i int) int {
	o, _ := slices.BinarySearch(f.router.ids, f.clients[i].ID())
	return o
}

// owned returns the groups of rs on node i's shards, as a full request to
// it carries them.
func (f *restartFleet) owned(i int, rs []rules.Rule) []GroupUpdate {
	shards := f.router.owned[f.ordinal(i)]
	var out []GroupUpdate
	for _, g := range groupRules(rs) {
		if s := f.opt.shardOf(g.ant()[0]); slices.Contains(shards, s) {
			out = append(out, GroupUpdate{Shard: s, Rules: g.Rules})
		}
	}
	return out
}

// publish publishes rs and returns its stats and the requests each node
// was sent.
func (f *restartFleet) publish(t *testing.T, rs []rules.Rule, full bool) (PublishStats, [][]PrepareRequest) {
	t.Helper()
	st, err := f.router.Publish(rs, full)
	if err != nil {
		t.Fatalf("publish: %v", err)
	}
	sent := make([][]PrepareRequest, len(f.clients))
	for i, c := range f.clients {
		sent[i] = c.take()
	}
	return st, sent
}

// check fails unless every node has committed generation gen and serves
// the index NewIndex builds over the rules of rs on its shards.
func (f *restartFleet) check(t *testing.T, rs []rules.Rule, gen uint64) {
	t.Helper()
	for i, node := range f.nodes {
		if node.Gen() != gen {
			t.Fatalf("node %d committed generation %d, want %d", i, node.Gen(), gen)
		}
		var mine []rules.Rule
		for _, g := range f.owned(i, rs) {
			mine = append(mine, g.Rules...)
		}
		if got, want := allRules(node.Server().Index()), serve.NewIndex(mine, serve.Options{}).All(); !reflect.DeepEqual(got, want) {
			t.Fatalf("node %d serves %d rules, its shards hold %d", i, len(got), len(want))
		}
	}
}

// shipped sums what requests carry, the way PublishStats counts it.
func shipped(reqs [][]PrepareRequest) (upserts, removes int, bytes int64) {
	for _, node := range reqs {
		for _, req := range node {
			for _, up := range req.Upserts {
				upserts++
				bytes += int64(len(ruleGroup{GroupUpdate: up}.canonical()))
			}
			for _, rm := range req.Removes {
				removes++
				bytes += int64(4*len(rm.Ant)) + 4
			}
		}
	}
	return upserts, removes, bytes
}

// generations returns n seeded rule sets, each the next generation of the
// one before.
func generations(seed int64, n int) [][]rules.Rule {
	const nItems = 40
	rng := rand.New(rand.NewSource(seed))
	gens := [][]rules.Rule{synthRules(400, nItems, seed)}
	for len(gens) < n {
		gens = append(gens, nextGeneration(rng, gens[len(gens)-1], nItems))
	}
	return gens
}

// TestRestartedNodeResyncedInSamePublish restarts a node empty between two
// delta publishes.  The next delta publish commits everywhere: the node
// refuses its delta and is sent all of its shards' groups as a full
// prepare in the same publish, which counts in the stats, and it serves
// its shards' rules.  The delta after that commits everywhere too.
func TestRestartedNodeResyncedInSamePublish(t *testing.T) {
	for _, transport := range []string{"local", "http"} {
		t.Run(transport, func(t *testing.T) {
			f := newRestartFleet(t, transport)
			gens := generations(1, 4)
			f.publish(t, gens[0], true)
			f.publish(t, gens[1], false)
			f.check(t, gens[1], 2)

			f.restart(0)
			st, sent := f.publish(t, gens[2], false)
			f.check(t, gens[2], 3)
			if len(sent[0]) != 2 || sent[0][0].Full || !sent[0][1].Full {
				t.Fatalf("restarted node was sent %d requests, want a delta, then a full one", len(sent[0]))
			}
			if !reflect.DeepEqual(sent[0][1].Upserts, f.owned(0, gens[2])) || len(sent[0][1].Removes) != 0 {
				t.Fatalf("the full resend carries %d groups, the node's shards hold %d", len(sent[0][1].Upserts), len(f.owned(0, gens[2])))
			}
			if up, rm, b := shipped(sent); st.Upserts != up || st.Removes != rm || st.Bytes != b || st.Gen != 3 || st.Full {
				t.Fatalf("stats %+v; the requests carried %d upserts, %d removes, %d bytes", st, up, rm, b)
			}

			st, sent = f.publish(t, gens[3], false)
			f.check(t, gens[3], 4)
			for i, reqs := range sent {
				if len(reqs) != 1 || reqs[0].Full {
					t.Fatalf("node %d was sent %d requests after the resync, want one delta", i, len(reqs))
				}
			}
			if up, rm, b := shipped(sent); st.Upserts != up || st.Removes != rm || st.Bytes != b {
				t.Fatalf("stats %+v; the requests carried %d upserts, %d removes, %d bytes", st, up, rm, b)
			}
		})
	}
}

// TestRestartedRouterPublishes replaces the router of a fleet that has
// committed generation 3.  The new router starts at generation 0, reads
// the fleet's committed generation from the nodes' metrics, and sends each
// node one full request at generation 4, which commits; the delta after it
// commits too.
func TestRestartedRouterPublishes(t *testing.T) {
	for _, transport := range []string{"local", "http"} {
		t.Run(transport, func(t *testing.T) {
			f := newRestartFleet(t, transport)
			gens := generations(2, 5)
			for gen, rs := range gens[:3] {
				f.publish(t, rs, gen == 0)
			}
			f.check(t, gens[2], 3)

			f.newRouter(t, nil)
			st, sent := f.publish(t, gens[3], true)
			f.check(t, gens[3], 4)
			if st.Gen != 4 {
				t.Fatalf("restarted router published generation %d, want 4", st.Gen)
			}
			for i, reqs := range sent {
				if len(reqs) != 1 || reqs[0].Gen != 4 || !reqs[0].Full || !reflect.DeepEqual(reqs[0].Upserts, f.owned(i, gens[3])) {
					t.Fatalf("node %d was sent %d requests, want one full one at generation 4", i, len(reqs))
				}
			}
			if up, rm, b := shipped(sent); st.Upserts != up || st.Removes != rm || st.Bytes != b {
				t.Fatalf("stats %+v; the requests carried %d upserts, %d removes, %d bytes", st, up, rm, b)
			}
			if m := f.router.Metrics(); m.Generation != 4 {
				t.Fatalf("router reports generation %d, want 4", m.Generation)
			}

			if st, _ := f.publish(t, gens[4], false); st.Gen != 5 {
				t.Fatalf("delta after the restart published generation %d, want 5", st.Gen)
			}
			f.check(t, gens[4], 5)
		})
	}
}

// metricsDown is a Client whose Metrics always fails while its other calls
// go through: a node the router cannot read but can publish to.
type metricsDown struct{ Client }

func (metricsDown) Metrics(context.Context) (serve.Metrics, error) {
	return serve.Metrics{}, errors.New("metrics unavailable")
}

// TestRestartedRouterLiftsPastAnUnreadNode: only node 0 still holds the
// fleet's generation 3 (the others restarted empty), and its metrics
// cannot be read.  The restarted router reads generation 0 from the
// others, so node 0 refuses the first round at generation 1 as stale; the
// publish lifts to generation 4, sends every node its full request again
// and commits.
func TestRestartedRouterLiftsPastAnUnreadNode(t *testing.T) {
	for _, transport := range []string{"local", "http"} {
		t.Run(transport, func(t *testing.T) {
			f := newRestartFleet(t, transport)
			gens := generations(3, 4)
			for gen, rs := range gens[:3] {
				f.publish(t, rs, gen == 0)
			}
			for i := 1; i < len(f.nodes); i++ {
				f.restart(i)
			}
			f.newRouter(t, func(i int, c Client) Client {
				if i == 0 {
					return metricsDown{c}
				}
				return c
			})
			st, sent := f.publish(t, gens[3], true)
			f.check(t, gens[3], 4)
			if st.Gen != 4 {
				t.Fatalf("published generation %d, want 4", st.Gen)
			}
			for i, reqs := range sent {
				if len(reqs) != 2 || reqs[0].Gen != 1 || reqs[1].Gen != 4 || !reqs[1].Full || !reflect.DeepEqual(reqs[1].Upserts, f.owned(i, gens[3])) {
					t.Fatalf("node %d was sent %d requests, want one at generation 1 and a full one at 4", i, len(reqs))
				}
			}
			if up, rm, b := shipped(sent); st.Upserts != up || st.Removes != rm || st.Bytes != b {
				t.Fatalf("stats %+v; the requests carried %d upserts, %d removes, %d bytes", st, up, rm, b)
			}
		})
	}
}

// TestPrepareRefusalsKeepTheirType: a delta to a node that has committed
// nothing is refused with ErrNeedFull, and a prepare at or below the
// committed generation with a *StaleError carrying that generation — in
// process, and over HTTP, where each refusal has its status and the client
// maps it back.
func TestPrepareRefusalsKeepTheirType(t *testing.T) {
	fresh := NewNode("fresh", serve.Options{})
	t.Cleanup(fresh.Close)
	committed := controlPlaneNode(t)
	delta := PrepareRequest{Gen: 1, Owned: []int{0, 1}}
	stale := controlPlaneGen1()

	freshSrv := httptest.NewServer(NodeHandler(fresh))
	t.Cleanup(freshSrv.Close)
	committedSrv := httptest.NewServer(NodeHandler(committed))
	t.Cleanup(committedSrv.Close)
	ctx := context.Background()
	for _, tc := range []struct {
		name          string
		local, remote error
	}{
		{"in process", fresh.Prepare(delta), committed.Prepare(stale)},
		{"over HTTP", NewHTTPClient(freshSrv.URL, 0).Prepare(ctx, delta), NewHTTPClient(committedSrv.URL, 0).Prepare(ctx, stale)},
	} {
		if !errors.Is(tc.local, ErrNeedFull) {
			t.Errorf("%s: delta to an empty node refused with %v, want ErrNeedFull", tc.name, tc.local)
		}
		var se *StaleError
		if !errors.As(tc.remote, &se) || se.Gen != 1 || se.Committed != 1 {
			t.Errorf("%s: stale prepare refused with %v, want a *StaleError at committed generation 1", tc.name, tc.remote)
		}
	}
	for _, tc := range []struct {
		h    http.Handler
		req  PrepareRequest
		code int
	}{{NodeHandler(fresh), delta, http.StatusPreconditionFailed}, {NodeHandler(committed), stale, http.StatusConflict}} {
		body, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		tc.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/shard/prepare", bytes.NewReader(body)))
		if rec.Code != tc.code {
			t.Errorf("prepare %+v: HTTP %d, want %d", tc.req, rec.Code, tc.code)
		}
	}
	if fresh.Gen() != 0 || committed.Gen() != 1 {
		t.Errorf("a refused prepare moved a node: generations %d and %d", fresh.Gen(), committed.Gen())
	}
}
