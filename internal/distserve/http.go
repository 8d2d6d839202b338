package distserve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"parapriori/internal/itemset"
	"parapriori/internal/rules"
	"parapriori/internal/serve"
)

// The HTTP transport runs the same node protocol as LocalClient between real
// processes: cmd/ruleserver -node exposes NodeHandler, cmd/ruleserver
// -router drives HTTPClients.  Go's JSON encoder emits the shortest float64
// representation that round-trips exactly, so quality measures survive the
// wire bit-for-bit and the distributed ranking stays identical to the
// in-process one.

// Request-body caps of the two control-plane decoders: a prepare carries a
// node's whole share of a full publish, a commit one generation number.
// Variables only so tests can lower them.
var (
	maxPrepareBody int64 = 256 << 20
	maxCommitBody  int64 = 4 << 10
)

// decodeBody decodes the request's JSON body, at most limit bytes of it,
// into v.  On failure it has answered — 413 for an oversized body, 400 for
// a malformed one — and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, what string, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		serve.WriteError(w, http.StatusRequestEntityTooLarge, "%s: body exceeds %d bytes", what, tooLarge.Limit)
	default:
		serve.WriteError(w, http.StatusBadRequest, "%s: %v", what, err)
	}
	return false
}

// NodeHandler is a node process's HTTP surface: the control-plane endpoints
//
//	POST /shard/prepare   stage a publish generation (a PrepareRequest)
//	POST /shard/commit    cut over to a staged generation ({"generation": n})
//	GET  /shard/state     node identity, generation, owned shards
//
// plus the node's full single-node serving surface (GET /recommend, /rules,
// /healthz, /metrics) mounted at the root — a node answers basket queries
// over its own shards exactly like a standalone ruleserver over a small
// rule set, which is what the router's scatter-gather relies on.
func NodeHandler(n *Node) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", n.Server().Handler(nil))
	mux.HandleFunc("/shard/prepare", serve.Only(http.MethodPost, func(w http.ResponseWriter, r *http.Request) {
		var req PrepareRequest
		if !decodeBody(w, r, maxPrepareBody, "prepare", &req) {
			return
		}
		if err := n.Prepare(req); err != nil {
			writeRefusal(w, err)
			return
		}
		serve.WriteJSON(w, http.StatusOK, map[string]any{"staged": req.Gen})
	}))
	mux.HandleFunc("/shard/commit", serve.Only(http.MethodPost, func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			Gen uint64 `json:"generation"`
		}
		if !decodeBody(w, r, maxCommitBody, "commit", &body) {
			return
		}
		if err := n.Commit(body.Gen); err != nil {
			serve.WriteError(w, http.StatusConflict, "%v", err)
			return
		}
		serve.WriteJSON(w, http.StatusOK, map[string]any{"generation": body.Gen})
	}))
	mux.HandleFunc("/shard/state", serve.Only(http.MethodGet, func(w http.ResponseWriter, r *http.Request) {
		serve.WriteJSON(w, http.StatusOK, map[string]any{
			"id":         n.ID(),
			"generation": n.Gen(),
			"shards":     n.Shards(),
			"num_rules":  n.NumRules(),
		})
	}))
	return mux
}

// writeRefusal answers a refused prepare: ErrNeedFull with 412, and any
// other refusal with 409 — a *StaleError's with the error in its body's
// "stale" member, so the router learns the committed generation.
// HTTPClient.refusal maps both back.
func writeRefusal(w http.ResponseWriter, err error) {
	var stale *StaleError
	switch {
	case errors.Is(err, ErrNeedFull):
		serve.WriteError(w, http.StatusPreconditionFailed, "%v", err)
	case errors.As(err, &stale):
		serve.WriteJSON(w, http.StatusConflict, map[string]any{"error": err.Error(), "stale": stale})
	default:
		serve.WriteError(w, http.StatusConflict, "%v", err)
	}
}

// HTTPClient speaks the node protocol to a ruleserver -node process.  Its ID
// is the node's base URL, so a fixed node list gives the same rendezvous
// placement on every router start.  Every call runs until its deadline —
// a query's own, a control-plane call's context's, as LocalClient reads
// them — and a call without one gets the client's default budget.
// Deadline misses surface as *TimeoutError (the node may be alive but
// slow), other transport failures as ErrNodeDown.
type HTTPClient struct {
	base   string
	budget time.Duration
	hc     *http.Client
}

// NewHTTPClient builds a client for a node at baseURL (e.g.
// "http://host:9001"; a missing scheme defaults to http, a trailing slash is
// trimmed).  budget is the deadline for calls that carry none (<= 0 means
// DefaultRequestTimeout).  The router always supplies per-leg deadlines
// from Options.RequestTimeout; the budget is the floor for direct users of
// the client.
func NewHTTPClient(baseURL string, budget time.Duration) *HTTPClient {
	base := strings.TrimRight(baseURL, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	if budget <= 0 {
		budget = DefaultRequestTimeout
	}
	return &HTTPClient{base: base, budget: budget, hc: &http.Client{}}
}

// ID implements Client.
func (c *HTTPClient) ID() string { return c.base }

// withBudget returns the context a call due by deadline runs under, cut at
// the default budget when the deadline is zero.  The budget it returns is
// what the call had left, never below zero.
func (c *HTTPClient) withBudget(deadline time.Time) (context.Context, context.CancelFunc, time.Duration) {
	if deadline.IsZero() {
		ctx, cancel := context.WithTimeout(context.Background(), c.budget)
		return ctx, cancel, c.budget
	}
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	return ctx, cancel, max(time.Until(deadline), 0)
}

// classify turns a transport error into the router's failure taxonomy.
func (c *HTTPClient) classify(err error, budget time.Duration) error {
	var ne net.Error
	if errors.Is(err, context.DeadlineExceeded) || (errors.As(err, &ne) && ne.Timeout()) {
		return &TimeoutError{Node: c.base, Budget: budget, Err: err}
	}
	return fmt.Errorf("%w: %v", ErrNodeDown, err)
}

// do runs one call under withBudget(deadline).
func (c *HTTPClient) do(deadline time.Time, method, path string, in, out any) error {
	ctx, cancel, budget := c.withBudget(deadline)
	defer cancel()
	var body io.Reader
	if in != nil {
		payload, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return c.classify(err, budget)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return c.refusal(path, resp.StatusCode, b)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return c.classify(err, budget) // a deadline can also fire mid-body
	}
	return nil
}

// refusal turns a node's non-200 answer into an error: ErrNeedFull for a
// 412, the node's *StaleError for a 409 that carries one (writeRefusal),
// and otherwise one that quotes the status and body.
func (c *HTTPClient) refusal(path string, status int, body []byte) error {
	var refused struct {
		Stale *StaleError `json:"stale"`
	}
	switch {
	case status == http.StatusPreconditionFailed:
		return fmt.Errorf("distserve: %s%s: %w", c.base, path, ErrNeedFull)
	case status == http.StatusConflict && json.Unmarshal(body, &refused) == nil && refused.Stale != nil:
		return refused.Stale
	}
	return fmt.Errorf("distserve: %s%s: HTTP %d: %s", c.base, path, status, strings.TrimSpace(string(body)))
}

// Recommend implements Client via the node's GET /recommend.
func (c *HTTPClient) Recommend(deadline time.Time, basket itemset.Itemset, k int, link string) ([]rules.Rule, uint64, error) {
	items := make([]string, len(basket))
	for i, it := range basket {
		items[i] = strconv.Itoa(int(it))
	}
	path := "/recommend?items=" + url.QueryEscape(strings.Join(items, ",")) + "&k=" + strconv.Itoa(k)
	if link != "" {
		path += "&link=" + url.QueryEscape(link)
	}
	var a serve.Answer
	if err := c.do(deadline, http.MethodGet, path, nil, &a); err != nil {
		return nil, 0, err
	}
	if len(a.Rules) == 0 {
		a.Rules = nil // the in-process "no matches", so both transports answer alike
	}
	return a.Rules, a.Generation, nil
}

// Prepare implements Client via POST /shard/prepare.
func (c *HTTPClient) Prepare(ctx context.Context, req PrepareRequest) error {
	return c.do(deadlineOf(ctx), http.MethodPost, "/shard/prepare", req, nil)
}

// Commit implements Client via POST /shard/commit.
func (c *HTTPClient) Commit(ctx context.Context, gen uint64) error {
	return c.do(deadlineOf(ctx), http.MethodPost, "/shard/commit", map[string]uint64{"generation": gen}, nil)
}

// Metrics implements Client via GET /metrics.
func (c *HTTPClient) Metrics(ctx context.Context) (serve.Metrics, error) {
	var m serve.Metrics
	err := c.do(deadlineOf(ctx), http.MethodGet, "/metrics", nil, &m)
	return m, err
}

// Handler is the router process's HTTP surface:
//
//	GET  /recommend?items=1,2,3&k=10   distributed top-K (scatter-gather)
//	GET  /healthz                      liveness, generation, nodes up
//	GET  /metrics                      FleetMetrics as JSON; Prometheus text
//	                                   exposition when Accept: text/plain
//	GET  /debug/flight                 flight-ring dump: recent spans as
//	                                   Perfetto JSON (?format=attrib for the
//	                                   attribution table)
//	GET  /placement                    shard → node assignment
//	POST /reload[?full=1]              rebuild rules via the callback and
//	                                   publish cluster-wide (delta by default)
//
// reload supplies a freshly generated rule set (typically re-reading the
// mined result file); nil disables /reload with 501.
func (r *Router) Handler(reload func() ([]rules.Rule, error)) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/recommend", serve.Only(http.MethodGet, func(w http.ResponseWriter, req *http.Request) {
		basket, k, err := serve.ParseRecommendQuery(req.URL.Query())
		if err != nil {
			serve.WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		res, err := r.Recommend(basket, k)
		if err != nil {
			serve.WriteError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
		if res.Rules == nil {
			res.Rules = []rules.Rule{}
		}
		serve.WriteJSON(w, http.StatusOK, res)
	}))
	mux.HandleFunc("/healthz", serve.Only(http.MethodGet, func(w http.ResponseWriter, req *http.Request) {
		m := r.Metrics()
		status := "ok"
		code := http.StatusOK
		switch {
		case m.Generation == 0:
			status, code = "empty", http.StatusServiceUnavailable
		case m.NodesUp < m.NumNodes:
			status = "degraded"
		}
		health := make(map[string]string)
		for id, st := range r.Health() {
			health[id] = st.String()
		}
		serve.WriteJSON(w, code, map[string]any{
			"status":     status,
			"generation": m.Generation,
			"nodes_up":   m.NodesUp,
			"num_nodes":  m.NumNodes,
			"health":     health,
		})
	}))
	mux.HandleFunc("/metrics", serve.Only(http.MethodGet, func(w http.ResponseWriter, req *http.Request) {
		serve.WriteMetrics(w, req, r.Metrics, r.writeProm)
	}))
	mux.HandleFunc("/debug/flight", serve.Only(http.MethodGet, func(w http.ResponseWriter, req *http.Request) {
		serve.WriteFlight(w, r.flight, req.URL.Query().Get("format"))
	}))
	mux.HandleFunc("/placement", serve.Only(http.MethodGet, func(w http.ResponseWriter, req *http.Request) {
		serve.WriteJSON(w, http.StatusOK, map[string]any{
			"shards":    r.opt.Shards,
			"replicas":  r.opt.Replicas,
			"nodes":     r.NodeIDs(),
			"placement": r.Placement(),
			"replica_sets": func() [][]string {
				if r.opt.Replicas > 1 {
					return r.Replicas()
				}
				return nil
			}(),
		})
	}))
	mux.HandleFunc("/reload", serve.Only(http.MethodPost, func(w http.ResponseWriter, req *http.Request) {
		if reload == nil {
			serve.WriteError(w, http.StatusNotImplemented, "no reload source configured")
			return
		}
		rs, err := reload()
		if err != nil {
			serve.WriteError(w, http.StatusInternalServerError, "reload: %v", err)
			return
		}
		full := req.URL.Query().Get("full") != ""
		stats, err := r.Publish(rs, full)
		if err != nil {
			serve.WriteError(w, http.StatusBadGateway, "publish: %v", err)
			return
		}
		serve.WriteJSON(w, http.StatusOK, stats)
	}))
	return mux
}
