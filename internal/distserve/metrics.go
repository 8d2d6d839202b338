package distserve

import (
	"context"
	"slices"
	"time"

	"parapriori/internal/obsv"
	"parapriori/internal/serve"
)

// NodeMetrics is one node's view in the fleet report: identity, liveness,
// the failure detector's state, the shards placement assigns it, and its
// full single-node serving metrics (zero-valued when the node is down).
type NodeMetrics struct {
	ID     string        `json:"id"`
	Up     bool          `json:"up"`
	Health string        `json:"health"`
	Shards []int         `json:"shards"`
	Serve  serve.Metrics `json:"serve"`
}

// FleetMetrics is the router's aggregated view of the tier: its own query
// counters plus every node's serving metrics, in sorted node-ID order.
type FleetMetrics struct {
	UptimeSeconds    float64 `json:"uptime_seconds"`
	Queries          int64   `json:"queries"`
	QPS              float64 `json:"qps"`
	P50LatencyMicros float64 `json:"p50_latency_micros"`
	P99LatencyMicros float64 `json:"p99_latency_micros"`
	// PartialResults counts queries answered with one or more owners down.
	PartialResults int64 `json:"partial_results"`
	// FanoutPerQuery is the mean number of legs sent per query — the
	// scatter width the first-item sharding buys down from N, plus any
	// retry and hedge legs.
	FanoutPerQuery float64 `json:"fanout_per_query"`
	// Retries, Hedges and Timeouts count the HA machinery's work: legs
	// re-issued after a failure, legs raced against stragglers, and calls
	// that exceeded the request deadline.  Probes counts failure-detector
	// probes (background and ProbeOnce).
	Retries  int64 `json:"retries"`
	Hedges   int64 `json:"hedges"`
	Timeouts int64 `json:"timeouts"`
	Probes   int64 `json:"probes"`
	// Refreshes counts coherence re-queries: stale-generation answers
	// re-fetched while a publish cut over mid-query.
	Refreshes  int64  `json:"refreshes"`
	Generation uint64 `json:"generation"`
	NumNodes   int    `json:"num_nodes"`
	NodesUp    int    `json:"nodes_up"`
	// Replicas is R — how many nodes each shard is placed on.
	Replicas int `json:"replicas"`
	Shards   int `json:"shards"`
	// NumRules is the fleet-wide rule count summed over reachable nodes.
	NumRules int           `json:"num_rules"`
	Nodes    []NodeMetrics `json:"nodes"`
	// Exemplars are the router latency histogram's per-bucket slowest recent
	// queries: each SpanID resolves in the router's /debug/flight ring to the
	// request span and its fan-out legs, and Nodes lists the fan-out set.
	Exemplars []serve.Exemplar `json:"exemplars,omitempty"`
}

// Metrics aggregates the router's own counters with every node's serving
// metrics.  Down nodes are reported Up=false rather than failing the whole
// report.
func (r *Router) Metrics() FleetMetrics {
	r.mu.RLock()
	gen := r.gen
	r.mu.RUnlock()

	fm := FleetMetrics{
		Generation: gen,
		NumNodes:   len(r.ids),
		Replicas:   r.opt.Replicas,
		Shards:     len(r.replicas),
	}
	fm.UptimeSeconds = time.Since(r.met.start).Seconds()
	fm.Queries = r.met.latency.Count()
	if fm.UptimeSeconds > 0 {
		fm.QPS = float64(fm.Queries) / fm.UptimeSeconds
	}
	fm.P50LatencyMicros = r.met.latency.Percentile(0.50)
	fm.P99LatencyMicros = r.met.latency.Percentile(0.99)
	fm.PartialResults = r.met.partials.Load()
	fm.Retries = r.met.retries.Load()
	fm.Hedges = r.met.hedges.Load()
	fm.Timeouts = r.met.timeouts.Load()
	fm.Probes = r.met.probes.Load()
	fm.Refreshes = r.met.refreshes.Load()
	fm.Exemplars = r.met.latency.Exemplars()
	if fm.Queries > 0 {
		fm.FanoutPerQuery = float64(r.met.fanout.Load()) / float64(fm.Queries)
	}

	ctx, cancel := context.WithTimeout(context.Background(), r.opt.RequestTimeout)
	defer cancel()
	for o, id := range r.ids {
		nm := NodeMetrics{ID: id, Shards: slices.Clone(r.owned[o]), Health: r.health[o].State().String()}
		if m, err := r.clients[o].Metrics(ctx); err == nil {
			nm.Up = true
			nm.Serve = m
			fm.NodesUp++
			fm.NumRules += m.NumRules
		}
		fm.Nodes = append(fm.Nodes, nm)
	}
	// NumRules double-counts replicated shards' rules when R > 1; report
	// the fleet-unique count by scaling down only when every node answered
	// (a partial poll can't distinguish which copies it saw).
	effR := fm.Replicas
	if effR > fm.NumNodes {
		effR = fm.NumNodes
	}
	if effR > 1 && fm.NodesUp == fm.NumNodes {
		fm.NumRules /= effR
	}
	return fm
}

// writeProm renders the fleet metrics as Prometheus text exposition — the
// content-negotiated alternative to the JSON view on the router's /metrics.
// Router-level counters come out as native families (including the real
// latency histogram); per-node serving metrics, which arrive pre-aggregated
// over the node protocol, are labeled gauges/counters keyed by node ID.
func (r *Router) writeProm(w *obsv.PromWriter) {
	m := r.Metrics()
	w.Gauge("parapriori_router_uptime_seconds", "Seconds since the router started.", m.UptimeSeconds)
	w.Counter("parapriori_router_queries_total", "Distributed basket queries routed.", float64(m.Queries))
	w.Counter("parapriori_router_partial_results_total", "Queries answered with one or more owners down.", float64(m.PartialResults))
	w.Counter("parapriori_router_fanout_total", "Fan-out legs summed over all queries.", float64(r.met.fanout.Load()))
	w.Counter("parapriori_router_retries_total", "Legs re-issued after a failed leg.", float64(m.Retries))
	w.Counter("parapriori_router_hedges_total", "Hedge legs raced against stragglers.", float64(m.Hedges))
	w.Counter("parapriori_router_timeouts_total", "Calls that exceeded the request deadline.", float64(m.Timeouts))
	w.Counter("parapriori_router_probes_total", "Failure-detector probes issued.", float64(m.Probes))
	w.Counter("parapriori_router_refreshes_total", "Coherence re-queries of stale-generation answers.", float64(m.Refreshes))
	w.Gauge("parapriori_replicas", "Replicas per shard (R).", float64(m.Replicas))
	w.Gauge("parapriori_cluster_generation", "Current cluster publish generation.", float64(m.Generation))
	w.Gauge("parapriori_nodes", "Member nodes.", float64(m.NumNodes))
	w.Gauge("parapriori_nodes_up", "Member nodes that answered the metrics poll.", float64(m.NodesUp))
	w.Gauge("parapriori_shards", "Index shards distributed across the fleet.", float64(m.Shards))
	w.Gauge("parapriori_rules", "Fleet-wide rules summed over reachable nodes.", float64(m.NumRules))
	w.Histogram("parapriori_router_query_latency_seconds", "End-to-end distributed query latency (power-of-two buckets).",
		r.met.latency.UppersSeconds(), r.met.latency.Counts(), r.met.latency.SumSeconds())
	for _, n := range m.Nodes {
		node := obsv.String("node", n.ID)
		up := 0.0
		if n.Up {
			up = 1
		}
		w.Gauge("parapriori_node_up", "Whether the node answered the metrics poll.", up, node)
		w.Gauge("parapriori_node_health", "Failure-detector state: 0 up, 1 suspect, 2 down.", healthCode(n.Health), node)
		w.Gauge("parapriori_node_shards", "Shards placement assigns the node.", float64(len(n.Shards)), node)
		if !n.Up {
			continue
		}
		w.Counter("parapriori_node_queries_total", "Basket queries the node served.", float64(n.Serve.Queries), node)
		w.Counter("parapriori_node_cache_hits_total", "Node query cache hits.", float64(n.Serve.CacheHits), node)
		w.Counter("parapriori_node_cache_misses_total", "Node query cache misses.", float64(n.Serve.CacheMisses), node)
		w.Gauge("parapriori_node_generation", "Node snapshot generation.", float64(n.Serve.SnapshotGeneration), node)
		w.Gauge("parapriori_node_rules", "Rules in the node's served index.", float64(n.Serve.NumRules), node)
		w.Gauge("parapriori_node_p50_latency_seconds", "Node p50 query latency in seconds.", n.Serve.P50LatencyMicros/1e6, node)
		w.Gauge("parapriori_node_p99_latency_seconds", "Node p99 query latency in seconds.", n.Serve.P99LatencyMicros/1e6, node)
	}
}

// healthCode maps a HealthState string back to its numeric gauge value.
func healthCode(s string) float64 {
	switch s {
	case "suspect":
		return 1
	case "down":
		return 2
	}
	return 0
}
