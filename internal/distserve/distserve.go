// Package distserve is the multi-node rule-serving tier: a rule index split
// into S shards placed across N server nodes, a router that scatter-gathers
// basket queries, and a delta-publishing protocol that ships only changed
// antecedent groups when a fresh rule set lands.
//
// The design transplants the paper's partitioning ideas from mining to
// serving.  IDD partitions candidates by first item so each processor owns
// a disjoint slice of the hash tree; here, antecedent groups are partitioned
// by their first (smallest) item into S shards, and shards are placed on
// nodes by rendezvous (highest-random-weight) hashing with a seeded,
// deterministic tie-break — each node holds only its fraction of the index,
// the memory-constrained direction of Savasere et al.'s Partition algorithm.
//
// The moving parts:
//
//   - Placement: shard → node by rendezvous hashing, fixed for a router's
//     lifetime.  The assignment is a pure function of (seed, shard, node
//     IDs) — two routers with the same membership place identically, and a
//     router built over one node more or fewer moves only the shards whose
//     argmax changed (≈ S/N per node).
//
//   - Node: one serving process (or goroutine).  It keeps its owned shards'
//     antecedent groups as one list in antecedent order, serves basket
//     queries from a serve.Server over them (snapshot hot swap, query
//     cache, metrics — the single-node machinery, reused per node), and
//     participates in two-phase publishes: Prepare applies the delta to
//     that list by one merge-walk and builds the next index off the query
//     path, Commit atomically cuts the traffic over.
//
//   - Router: accepts basket queries, computes the shards the basket can
//     touch (one per distinct basket item — exactly the posting lists the
//     first-item inverted index would consult), fans out to only the owning
//     nodes, and merges per-node top-K into the global top-K under the
//     rules.RankLess total order.  Any rule in the global top-K is in its
//     node's local top-K, so the merge is bit-identical to a single-node
//     scan of the full rule set.  A down node degrades the answer, not the
//     service: the result is flagged Partial with the missed shards listed,
//     and the surviving shards' rules are ranked exactly as if the lost
//     rules never existed.
//
//   - Delta publish: the router groups the new rule set by antecedent
//     (groupRules: rank-sorted by rules.Rank, cut into runs in antecedent
//     order), walks that list once against the previous generation's,
//     marking each group changed or not by its canonical bytes and
//     collecting the vanished ones, and hands each changed group to the
//     replicas of its shard, and each vanished one to them as a tombstone.
//     Generations advance cluster-wide; the cut-over happens only after
//     every owner acknowledged its Prepare.
//
// Like package serve, distserve runs on the real clock and real goroutines
// — it is a production subsystem, not an emulation — so raw channels and
// goroutines are the right tool here: checkinv's rawchan rule guards only
// the virtual-clock packages, and its goroleak rule keeps every goroutine
// joined.
// The in-process Cluster wiring (goroutine nodes, direct calls) keeps the
// whole tier testable under -race in the emulated-cluster spirit of the
// repo; the HTTP transport in http.go runs the same protocol between real
// processes (cmd/ruleserver -node / -router).  Its bodies are the
// protocol's own types under their JSON names — a prepare is a
// PrepareRequest, a node's answer a serve.Answer, the router's a Result —
// and Node.Prepare is the one check of a prepare, whichever transport
// carried it: a group the router could never send is refused there.
package distserve

import (
	"sort"
	"time"

	"parapriori/internal/itemset"
	"parapriori/internal/serve"
)

// DefaultRequestTimeout is the per-leg query deadline when
// Options.RequestTimeout is zero.
const DefaultRequestTimeout = 2 * time.Second

// The failure detector's fixed parameters.
const (
	// probeInterval is the base period of background probes of non-Up
	// nodes.  Probes back off exponentially per node while it stays down;
	// the query path never waits on a probe.
	probeInterval = 500 * time.Millisecond
	// failThreshold is the number of consecutive failed calls after which
	// a Suspect node is marked Down and dropped from replica selection.  A
	// single failure marks it Suspect; any success restores Up.
	failThreshold = 3
)

// Options configures the distributed tier.  Router and in-process nodes are
// built from one Options value.  An HTTP node process takes only the serving
// options (Node), which shape its speed, not its answers: placement is the
// router's, and router and nodes clamp K with the same constants,
// serve.DefaultK and serve.MaxK.
type Options struct {
	// Shards is the number of index shards S distributed across the nodes
	// (default 32).  More shards give finer placement granularity and
	// smoother rebalancing at a little routing-table cost.
	Shards int
	// Replicas is R, the number of nodes each shard is placed on (default
	// 1).  With R > 1 every shard lives on the top R nodes of its
	// rendezvous candidate list, so losing any single node leaves every
	// shard served — Partial results become the all-replicas-down floor
	// instead of the single-node-loss norm.  Clamped to the member count.
	Replicas int
	// Seed seeds the item→shard hash, the rendezvous placement weights and
	// the router's replica-selection sequence.  Zero selects a fixed
	// default, keeping placement reproducible run to run.
	Seed uint64
	// RequestTimeout is the per-call deadline the router applies to every
	// fan-out leg, and the default budget HTTPClient applies to calls whose
	// context carries no deadline (default DefaultRequestTimeout).  A leg
	// that misses its deadline fails with a *TimeoutError and the router
	// retries the next live replica.
	RequestTimeout time.Duration
	// Node is the per-node serving configuration (query cache, worker
	// pool).  Each node's server defaults its zero fields itself.
	Node serve.Options
}

// WithDefaults returns the options with every zero field of the tier's own
// defaulted; Node is passed through as it is.
func (o Options) WithDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 32
	}
	if o.Replicas <= 0 {
		o.Replicas = 1
	}
	if o.Seed == 0 {
		o.Seed = 0xd157a1b2c3d4e5f6
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = DefaultRequestTimeout
	}
	return o
}

// shardOf maps an antecedent's first (smallest) item to its shard.  Every
// antecedent contained in a basket has its first item in the basket, so the
// shards a basket query can touch are exactly {shardOf(item)} over the
// basket items — the router's fan-out set.
func (o Options) shardOf(first itemset.Item) int {
	return int(splitmix64(o.Seed^uint64(uint32(first))) % uint64(o.Shards))
}

// PlaceReplicas assigns every shard its top-R owners by rendezvous hashing:
// the r nodes with the highest weight(seed, s, id) for shard s, in
// descending weight order (element 0 is the primary).  It is a pure
// deterministic function of (seed, shards, r, node IDs) — node order does
// not matter — so every router computes the same replica sets without
// coordination, and one node more or fewer moves only the shards whose
// top-R prefix changed.  Ties (astronomically unlikely with 64-bit
// weights) break toward the lexicographically smallest ID.  r is clamped
// to the node count; panics if nodeIDs is empty.
func PlaceReplicas(seed uint64, shards, r int, nodeIDs []string) [][]string {
	if len(nodeIDs) == 0 {
		panic("distserve: PlaceReplicas with no nodes")
	}
	ids := append([]string(nil), nodeIDs...)
	sort.Strings(ids)
	if r < 1 {
		r = 1
	}
	if r > len(ids) {
		r = len(ids)
	}
	owners := make([][]string, shards)
	w := make([]uint64, len(ids))
	for s := range owners {
		for i, id := range ids {
			w[i] = placeWeight(seed, s, id)
		}
		// Partial selection sort of the top r by (weight desc, id asc) —
		// ids is sorted, so equal weights break toward the smaller ID.
		top := make([]string, r)
		used := make([]bool, len(ids))
		for k := 0; k < r; k++ {
			best := -1
			for i := range ids {
				if !used[i] && (best < 0 || w[i] > w[best]) {
					best = i
				}
			}
			used[best] = true
			top[k] = ids[best]
		}
		owners[s] = top
	}
	return owners
}

// placeWeight is the rendezvous weight of (shard, node): a splitmix64
// absorb of the seed, the shard number and the node ID bytes — the same
// mixer the serving layer and the fault injector use.
func placeWeight(seed uint64, shard int, id string) uint64 {
	h := splitmix64(seed ^ uint64(shard))
	for i := 0; i < len(id); i++ {
		h = splitmix64(h ^ uint64(id[i]))
	}
	return h
}

// splitmix64 is the finalizer of Steele et al.'s SplitMix64 generator.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
