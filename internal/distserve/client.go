package distserve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"parapriori/internal/itemset"
	"parapriori/internal/rules"
	"parapriori/internal/serve"
)

// ErrNodeDown reports a node the router could not reach.  The router treats
// any transport error the same way; this sentinel is what the in-process
// client returns when a test (or the load generator) takes a node down.
var ErrNodeDown = errors.New("distserve: node down")

// TimeoutError reports a call that exceeded its deadline: the node may be
// alive but slow, which is a different signal from a refused connection.
// It still unwraps to ErrNodeDown so every existing "treat transport errors
// as a missing answer" path keeps working; callers that care about the
// distinction use errors.As.
type TimeoutError struct {
	Node   string        // node ID the call was addressed to
	Budget time.Duration // deadline budget the call ran under (0 if unknown)
	Err    error         // underlying context or transport error
}

func (e *TimeoutError) Error() string {
	if e.Budget > 0 {
		return fmt.Sprintf("distserve: %s timed out after %v: %v", e.Node, e.Budget, e.Err)
	}
	return fmt.Sprintf("distserve: %s timed out: %v", e.Node, e.Err)
}

// Unwrap makes the timeout match both its cause and errors.Is(err,
// ErrNodeDown), keeping timeouts inside the router's failure handling.
func (e *TimeoutError) Unwrap() []error { return []error{e.Err, ErrNodeDown} }

// Client is the router's transport to one node.  Two implementations exist:
// LocalClient drives an in-process Node directly (tests, experiments, and
// single-binary deployments), and HTTPClient speaks to a ruleserver -node
// process.  All methods must be safe for concurrent use.  A query runs
// until its deadline, a time rather than a context: the router budgets
// every fan-out leg but never cancels one early — it abandons a leg it no
// longer needs, whose answer lands in a buffer nobody reads.  The control
// plane's calls, once per publish or probe, take their context's deadline
// and likewise run until it.
type Client interface {
	// ID returns the node's identity — the string placement hashes on.
	// For HTTP nodes it is the base URL, so a fixed node list always
	// yields the same placement.
	ID() string
	// Recommend runs a basket query on the node by deadline (zero: the
	// transport's own budget, none in process), returning the node's
	// top-K and the cluster generation it served from.  The rules are
	// read-only: they may be the node's cached answer.  link is the
	// router's per-request span link; the node stamps its own request
	// span (and any latency exemplar) with it, so a slow distributed
	// query resolves across tiers through one shared ID.  Empty lets the
	// node assign its own.
	Recommend(deadline time.Time, basket itemset.Itemset, k int, link string) ([]rules.Rule, uint64, error)
	// Prepare stages a publish generation on the node.
	Prepare(ctx context.Context, req PrepareRequest) error
	// Commit cuts the node over to a staged generation.
	Commit(ctx context.Context, gen uint64) error
	// Metrics fetches the node's serving metrics.  It doubles as the
	// failure detector's probe.
	Metrics(ctx context.Context) (serve.Metrics, error)
}

// LocalClient is the in-process transport: direct calls into a Node, plus a
// kill switch and a delay injector so tests and the load generator can
// exercise the router's degraded and straggler paths deterministically.
type LocalClient struct {
	node  *Node
	down  atomic.Bool
	delay atomic.Int64 // nanoseconds added before every call
}

// SetDown makes every subsequent call fail with ErrNodeDown (true) or
// restores the node (false).  The node's state is untouched — a revived
// node still serves its last committed generation, exactly like a process
// that was partitioned away and came back.
func (c *LocalClient) SetDown(down bool) { c.down.Store(down) }

// SetDelay makes every subsequent call stall for d before executing — the
// in-process stand-in for a straggling node.  If the call's deadline comes
// first, the stall ends there and the call fails with a *TimeoutError,
// exactly like a slow HTTP node would.  Zero restores normal speed.
func (c *LocalClient) SetDelay(d time.Duration) { c.delay.Store(int64(d)) }

// ID implements Client.
func (c *LocalClient) ID() string { return c.node.ID() }

// gate applies the down switch and the injected delay to a call due by
// deadline (zero: none); it returns the first error the call must fail
// with, or nil to proceed.  It reads the clock once, and only when the
// call has a deadline; only an injected delay arms a timer.
func (c *LocalClient) gate(deadline time.Time) error {
	if c.down.Load() {
		return fmt.Errorf("%w: %s", ErrNodeDown, c.node.ID())
	}
	budget := time.Duration(math.MaxInt64)
	if !deadline.IsZero() {
		if budget = time.Until(deadline); budget <= 0 {
			return &TimeoutError{Node: c.node.ID(), Err: context.DeadlineExceeded}
		}
	}
	if d := time.Duration(c.delay.Load()); d > 0 {
		time.Sleep(min(d, budget))
		if d >= budget {
			return &TimeoutError{Node: c.node.ID(), Budget: budget, Err: context.DeadlineExceeded}
		}
		if c.down.Load() {
			return fmt.Errorf("%w: %s", ErrNodeDown, c.node.ID())
		}
	}
	return nil
}

// Recommend implements Client: the node's serve.Server answers, cache,
// worker pool, metrics and all, with the router's span link on its request
// span and latency exemplar.  The rules are the server's read-only answer,
// possibly its cached one.  The generation comes from the served snapshot
// itself, not the node's committed one: a commit racing this query must
// never relabel old content with the new generation (the router's
// coherence refresh trusts this label).
func (c *LocalClient) Recommend(deadline time.Time, basket itemset.Itemset, k int, link string) ([]rules.Rule, uint64, error) {
	if err := c.gate(deadline); err != nil {
		return nil, 0, err
	}
	return c.node.srv.RecommendTraced(basket, k, link)
}

// Prepare implements Client.
func (c *LocalClient) Prepare(ctx context.Context, req PrepareRequest) error {
	if err := c.gate(deadlineOf(ctx)); err != nil {
		return err
	}
	return c.node.Prepare(req)
}

// Commit implements Client.
func (c *LocalClient) Commit(ctx context.Context, gen uint64) error {
	if err := c.gate(deadlineOf(ctx)); err != nil {
		return err
	}
	return c.node.Commit(gen)
}

// Metrics implements Client.
func (c *LocalClient) Metrics(ctx context.Context) (serve.Metrics, error) {
	if err := c.gate(deadlineOf(ctx)); err != nil {
		return serve.Metrics{}, err
	}
	return c.node.Metrics(), nil
}

// deadlineOf returns ctx's deadline, zero when it has none.
func deadlineOf(ctx context.Context) time.Time {
	dl, _ := ctx.Deadline()
	return dl
}

// Cluster is an in-process serving fleet: n nodes and a router wired with
// LocalClients.  It is how the tests and the serve-churn benchmark run
// a whole multi-node deployment inside one process under -race — the
// emulated-cluster spirit of the repo, applied to the serving tier.
type Cluster struct {
	Router  *Router
	Nodes   []*Node
	Clients []*LocalClient
}

// NewCluster builds n nodes ("node00"…) and a router over them.  Publish a
// rule set through c.Router to start serving.
func NewCluster(n int, opt Options) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("distserve: cluster needs at least 1 node, got %d", n)
	}
	opt = opt.WithDefaults()
	c := &Cluster{}
	clients := make([]Client, n)
	for i := 0; i < n; i++ {
		node := NewNode(fmt.Sprintf("node%02d", i), opt.Node)
		lc := &LocalClient{node: node}
		c.Nodes = append(c.Nodes, node)
		c.Clients = append(c.Clients, lc)
		clients[i] = lc
	}
	r, err := NewRouter(clients, opt)
	if err != nil {
		for _, node := range c.Nodes {
			node.Close()
		}
		return nil, err
	}
	c.Router = r
	return c, nil
}

// Close stops every node's worker pool and the router's prober, if running.
func (c *Cluster) Close() {
	c.Router.StopProber()
	for _, n := range c.Nodes {
		n.Close()
	}
}
