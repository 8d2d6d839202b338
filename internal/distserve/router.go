package distserve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"parapriori/internal/itemset"
	"parapriori/internal/obsv"
	"parapriori/internal/rules"
	"parapriori/internal/serve"
)

// Router is the query and control plane of the distributed tier.  It owns
// shard placement and the authoritative rule-group state, publishes
// generations to all R owners of every shard with a two-phase delta
// protocol, and scatter-gathers basket queries across a replica of each
// shard the basket can touch — retrying, hedging and failing over between
// replicas so node loss stays invisible to queries while any replica of
// every touched shard survives.  All methods are safe for concurrent use;
// queries never block behind publishes.
type Router struct {
	opt Options

	// Membership and placement are fixed by NewRouter and never written
	// after it returns, so every path reads them without a lock.
	clients   map[string]Client
	ids       []string               // sorted node IDs
	placement []string               // shard → primary node ID (replicas[s][0])
	replicas  [][]string             // shard → top-R node IDs in HRW order
	health    map[string]*nodeHealth // failure-detector state per member

	// pubMu serializes publishes — the control plane.  The query path
	// never takes it.
	pubMu sync.Mutex

	// mu guards the publish state: the published groups' canonical bytes
	// and per-node bookkeeping.  Queries hold it only to read gen.
	mu    sync.RWMutex
	canon map[string][]byte
	held  map[string]map[int]bool // nil entry: node state untrusted, resend fully
	gen   uint64

	probeMu   sync.Mutex    // guards probeStop and probeDone
	probeStop chan struct{} // non-nil while the background prober runs
	probeDone chan struct{}

	pickSeq atomic.Uint64 // seeded choice-of-two sequence
	reqID   atomic.Uint64 // per-request span-link counter

	met    routerMetrics
	flight *obsv.Flight    // always-on bounded ring of recent spans
	rc     *obsv.RealClock // always non-nil: records into the flight ring
}

// routerMetrics is the router's lock-free counter block.
type routerMetrics struct {
	start     time.Time
	queries   atomic.Int64
	partials  atomic.Int64
	fanout    atomic.Int64
	retries   atomic.Int64
	hedges    atomic.Int64
	timeouts  atomic.Int64
	probes    atomic.Int64
	refreshes atomic.Int64
	latency   serve.Hist
}

// NewRouter builds a router over the given node clients.  The membership
// and its placement are fixed here for the router's lifetime; queries fail
// with serve.ErrNoSnapshot until the first Publish.  With Options.Replicas
// > 1 call StartProber to run the background failure detector (tests drive
// ProbeOnce instead).
func NewRouter(clients []Client, opt Options) (*Router, error) {
	if len(clients) == 0 {
		return nil, fmt.Errorf("distserve: router needs at least one node")
	}
	opt = opt.WithDefaults()
	r := &Router{
		opt:     opt,
		clients: make(map[string]Client, len(clients)),
		health:  make(map[string]*nodeHealth, len(clients)),
		held:    make(map[string]map[int]bool, len(clients)),
		flight:  obsv.NewFlight(obsv.ClockReal, 0),
	}
	r.rc = obsv.NewRealClock(r.flight)
	r.rc.SetMeta("tier", "router")
	r.met.start = time.Now()
	for _, c := range clients {
		id := c.ID()
		if _, dup := r.clients[id]; dup {
			return nil, fmt.Errorf("distserve: duplicate node ID %q", id)
		}
		r.clients[id] = c
		r.health[id] = &nodeHealth{}
		r.ids = append(r.ids, id)
	}
	sort.Strings(r.ids)
	r.replicas = PlaceReplicas(r.opt.Seed, r.opt.Shards, r.opt.Replicas, r.ids)
	r.placement = make([]string, len(r.replicas))
	for s, reps := range r.replicas {
		r.placement[s] = reps[0]
	}
	return r, nil
}

// Options returns the router's defaulted options.
func (r *Router) Options() Options { return r.opt }

// Flight returns the router's always-on flight recorder — the bounded ring
// of recent request, fan-out and publish spans behind /debug/flight.
func (r *Router) Flight() *obsv.Flight { return r.flight }

// Generation returns the current cluster generation, 0 before the first
// successful Publish.
func (r *Router) Generation() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.gen
}

// Placement returns a copy of the shard → primary-node assignment (each
// shard's top rendezvous candidate; the full replica sets are Replicas).
func (r *Router) Placement() []string {
	return append([]string(nil), r.placement...)
}

// Replicas returns a copy of the shard → replica-set assignment, each
// shard's top-R nodes in descending rendezvous-weight order.
func (r *Router) Replicas() [][]string {
	out := make([][]string, len(r.replicas))
	for s, reps := range r.replicas {
		out[s] = append([]string(nil), reps...)
	}
	return out
}

// NodeIDs returns the member node IDs, sorted.
func (r *Router) NodeIDs() []string {
	return append([]string(nil), r.ids...)
}

// PublishStats reports what one publish shipped.
type PublishStats struct {
	// Gen is the cluster generation the publish installed.
	Gen uint64 `json:"generation"`
	// Full records whether a full rebuild was requested (delta otherwise;
	// a delta publish may still resend everything to a node whose state
	// the router stopped trusting after a failed commit).
	Full bool `json:"full"`
	// Groups is the number of antecedent groups in the new rule set.
	Groups int `json:"groups"`
	// Upserts and Removes count group updates shipped across all nodes.
	Upserts int `json:"upserts"`
	Removes int `json:"removes"`
	// Bytes is the canonical-byte volume shipped: the wire-cost measure
	// delta publishing exists to shrink.
	Bytes int64 `json:"bytes"`
	// Nodes is the number of nodes that took part in the two-phase commit.
	Nodes int `json:"nodes"`
}

// Publish installs a new rule set cluster-wide.  With full=false it ships
// deltas: each owner receives only the antecedent groups on its shards
// whose canonical bytes changed since the previous generation, plus
// tombstones for groups that vanished.  The cut-over is two-phase: every
// node stages and acks (Prepare) before any node switches (Commit), so a
// failed node aborts the publish with the old generation still serving
// everywhere.  Rules with empty antecedents are unroutable and unreachable
// by basket queries (exactly as in the single-node index) and are dropped.
func (r *Router) Publish(rs []rules.Rule, full bool) (PublishStats, error) {
	r.pubMu.Lock()
	defer r.pubMu.Unlock()
	return r.publish(serve.Groups(rs), full)
}

// publish runs the two-phase protocol for a prepared group list.  The
// caller holds pubMu.
func (r *Router) publish(next []serve.RuleGroup, full bool) (PublishStats, error) {
	ids := r.ids
	r.mu.RLock()
	prevCanon := r.canon
	prevKeys := make([]string, 0, len(prevCanon))
	for k := range prevCanon {
		prevKeys = append(prevKeys, k)
	}
	sort.Strings(prevKeys)
	held := r.held
	newGen := r.gen + 1
	r.mu.RUnlock()

	// Canonical bytes and shard of every new group; empty antecedents are
	// dropped (see Publish).
	kept := next[:0:0]
	canonOf := make(map[string][]byte, len(next))
	shardOf := make(map[string]int, len(next))
	for _, g := range next {
		if len(g.Ant) == 0 {
			continue
		}
		kept = append(kept, g)
		canonOf[g.Key] = g.Canonical()
		shardOf[g.Key] = r.opt.shardOf(g.Ant[0])
	}
	next = kept

	// Shards owned by each node under the current placement: every node in
	// a shard's replica set owns it, so publishes fan the shard's groups to
	// all R owners.
	owned := make(map[string][]int, len(ids))
	for s, reps := range r.replicas {
		for _, id := range reps {
			owned[id] = append(owned[id], s)
		}
	}

	// Assemble one PrepareRequest per node.
	stats := PublishStats{Gen: newGen, Full: full, Groups: len(next), Nodes: len(ids)}
	reqs := make([]PrepareRequest, len(ids))
	for i, id := range ids {
		heldShards := held[id]
		fullNode := full || heldShards == nil
		req := PrepareRequest{Gen: newGen, Full: fullNode, Owned: owned[id]}
		ownedSet := make(map[int]bool, len(owned[id]))
		for _, s := range owned[id] {
			ownedSet[s] = true
		}
		for _, g := range next {
			s := shardOf[g.Key]
			if !ownedSet[s] {
				continue
			}
			switch {
			case fullNode, !heldShards[s]:
				// Node has nothing for this shard: ship the group.
			default:
				if prev, ok := prevCanon[g.Key]; ok && bytes.Equal(prev, canonOf[g.Key]) {
					continue
				}
			}
			req.Upserts = append(req.Upserts, GroupUpdate{Shard: s, Rules: g.Rules})
			stats.Upserts++
			stats.Bytes += int64(len(canonOf[g.Key]))
		}
		if !fullNode {
			for _, k := range prevKeys {
				if _, still := canonOf[k]; still {
					continue
				}
				s := r.opt.shardOfKey(k)
				if !ownedSet[s] || !heldShards[s] {
					continue
				}
				req.Removes = append(req.Removes, GroupRef{Shard: s, Ant: itemset.KeyToItemset(k)})
				stats.Removes++
				stats.Bytes += int64(len(k)) + 4
			}
		}
		reqs[i] = req
	}

	// Phase 1: stage everywhere.  Any failure aborts with the previous
	// generation still serving on every node — staged state is simply
	// superseded by the next publish's higher generation.  The control
	// plane runs under a budget far above the query deadline: prepares
	// ship real payloads and build indexes.
	pubCtx, pubCancel := context.WithTimeout(context.Background(), 15*r.opt.RequestTimeout)
	defer pubCancel()
	prepStart := r.rc.Now()
	prepErrs := make([]error, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		i, c := i, r.clients[id]
		wg.Add(1)
		go func() {
			defer wg.Done()
			prepErrs[i] = c.Prepare(pubCtx, reqs[i])
		}()
	}
	wg.Wait()
	r.rc.Record("prepare", obsv.CatPublish, 0, prepStart, r.rc.Now(),
		obsv.Int("generation", int64(newGen)),
		obsv.Int("nodes", int64(len(ids))),
		obsv.Int("upserts", int64(stats.Upserts)),
		obsv.Int("removes", int64(stats.Removes)),
		obsv.Int("bytes", stats.Bytes))
	for i, err := range prepErrs {
		if err != nil {
			return stats, fmt.Errorf("distserve: publish gen %d aborted: prepare on %s: %w", newGen, ids[i], err)
		}
	}

	// Phase 2: cut over.  A commit failure means that node is partitioned
	// or dead; survivors switch, and the router stops trusting the
	// failed node's state (its next publish is a full resend).
	commitStart := r.rc.Now()
	commitErrs := make([]error, len(ids))
	for i, id := range ids {
		i, c := i, r.clients[id]
		wg.Add(1)
		go func() {
			defer wg.Done()
			commitErrs[i] = c.Commit(pubCtx, newGen)
		}()
	}
	wg.Wait()
	r.rc.Record("commit", obsv.CatPublish, 0, commitStart, r.rc.Now(),
		obsv.Int("generation", int64(newGen)),
		obsv.Int("nodes", int64(len(ids))))

	r.mu.Lock()
	r.gen = newGen
	r.canon = canonOf
	var failed []string
	for i, id := range ids {
		if commitErrs[i] != nil {
			r.held[id] = nil
			failed = append(failed, id)
			continue
		}
		set := make(map[int]bool, len(owned[id]))
		for _, s := range owned[id] {
			set[s] = true
		}
		r.held[id] = set
	}
	r.mu.Unlock()

	if len(failed) > 0 {
		return stats, fmt.Errorf("distserve: publish gen %d committed partially: commit failed on %v", newGen, failed)
	}
	return stats, nil
}

// Result is one distributed basket query's answer.
type Result struct {
	// Rules is the global top-K under rules.RankLess — bit-identical to a
	// single-node Recommend over the union of the shards that answered.
	Rules []rules.Rule `json:"rules"`
	// Generation is the lowest cluster generation among the nodes that
	// answered; Mixed reports whether they disagreed (a publish was
	// cutting over mid-query).
	Generation uint64 `json:"generation"`
	Mixed      bool   `json:"mixed,omitempty"`
	// Partial flags a degraded answer: one or more touched shards had no
	// reachable replica and MissedShards lists them.  With R replicas this
	// is the all-replicas-down floor.  The rules that did arrive are
	// ranked exactly as if the missing ones never existed.
	Partial      bool  `json:"partial,omitempty"`
	MissedShards []int `json:"missed_shards,omitempty"`
	// NodesQueried is the fan-out of this query — how many distinct nodes
	// were sent a leg (primaries, retries and hedges included).
	NodesQueried int `json:"nodes_queried"`
	// Retries and Hedges count the extra legs this query needed: retries
	// replace failed legs, hedges race slow ones.
	Retries int `json:"retries,omitempty"`
	Hedges  int `json:"hedges,omitempty"`
}

// hedgeDelay is the straggler-hedging delay: after this long with fan-out
// legs still outstanding, Recommend re-issues the uncovered shards to
// alternate replicas and takes whichever answer lands first.  It is the
// router's observed p99 latency, clamped to [500µs, RequestTimeout/2].
func (r *Router) hedgeDelay() time.Duration {
	d := time.Duration(r.met.latency.Percentile(0.99)) * time.Microsecond
	return min(max(d, 500*time.Microsecond), r.opt.RequestTimeout/2)
}

// Recommend answers a basket query: clamp K exactly as a single node would
// (serve.DefaultK, serve.MaxK), fan one leg out per replica group
// covering the shards of the basket's items, and merge the per-node top-K
// lists under the RankLess total order.  Each leg runs under
// Options.RequestTimeout; a failed leg is retried once against the next
// untried replica of its shards, and after the hedge delay the slowest
// outstanding legs' shards are re-issued to alternate replicas, first
// answer wins.  A node's answer covers every touched shard it owns (its
// local top-K is computed over all of them at once), so the merged result
// is exact — bit-identical to a single-node server — whenever every
// touched shard got at least one successful answer.  Before the first
// Publish it returns serve.ErrNoSnapshot.
func (r *Router) Recommend(basket []itemset.Item, k int) (*Result, error) {
	start := time.Now()
	var lb [24]byte
	link := string(strconv.AppendUint(append(lb[:0], 'q'), r.reqID.Add(1), 10))
	legs, retries, hedges, partial := 0, 0, 0, false
	b := itemset.New(basket...)
	res := &Result{}
	asked := make(map[string]bool)
	defer func() {
		end := time.Now()
		r.met.queries.Add(1)
		r.met.latency.ObserveAt(end.Sub(start), end, func() serve.Exemplar {
			nodes := make([]string, 0, len(asked))
			for id := range asked {
				nodes = append(nodes, id)
			}
			sort.Strings(nodes)
			return serve.Exemplar{
				SpanID:     link,
				BasketHash: serve.BasketHash(b),
				Generation: res.Generation,
				Nodes:      nodes,
			}
		})
		p := int64(0)
		if partial {
			p = 1
		}
		r.rc.Record("recommend", obsv.CatRequest, 0, r.rc.At(start), r.rc.At(end),
			obsv.String("link", link),
			obsv.Int("basket", int64(len(basket))),
			obsv.Int("k", int64(k)),
			obsv.Int("fanout", int64(legs)),
			obsv.Int("retries", int64(retries)),
			obsv.Int("hedges", int64(hedges)),
			obsv.Int("partial", p))
	}()

	if k <= 0 {
		k = serve.DefaultK
	}
	k = min(k, serve.MaxK)

	r.mu.RLock()
	gen := r.gen
	r.mu.RUnlock()
	if gen == 0 {
		return nil, serve.ErrNoSnapshot
	}
	replicas, clients, health := r.replicas, r.clients, r.health

	// The shards this basket can touch: one per distinct item.  Every
	// antecedent ⊆ basket has its first item in the basket, and a group's
	// shard is a function of its first item, so no other shard can hold a
	// matching group.
	shards := make([]int, 0, len(b))
	for _, it := range b {
		shards = append(shards, r.opt.shardOf(it))
	}
	sort.Ints(shards)
	shards = dedupInts(shards)

	if len(shards) == 0 { // empty basket: nothing can match
		res.Generation = gen
		return res, nil
	}

	// Per touched shard: the replica candidates still standing.  A shard
	// whose replicas are all Down keeps its full list — the desperation
	// floor is trying a Down node, not answering Partial untried.
	liveOf := func(s int) []string {
		var live []string
		for _, id := range replicas[s] {
			if health[id].State() != HealthDown {
				live = append(live, id)
			}
		}
		if len(live) == 0 {
			return replicas[s]
		}
		return live
	}

	// Initial leg per shard group: shards with the same live candidate
	// list form one group, and each group gets one choice-of-two pick —
	// shards choosing the same node then share one leg (a node answers
	// over all its owned shards at once).
	pickByShard := make(map[int]string, len(shards))
	pickByGroup := make(map[string]string)
	for _, s := range shards {
		live := liveOf(s)
		key := ""
		for _, id := range live {
			key += id + ","
		}
		id, ok := pickByGroup[key]
		if !ok {
			id = r.pick2(live)
			pickByGroup[key] = id
		}
		pickByShard[s] = id
	}

	// ownsTouched[id] = the touched shards node id holds a replica of —
	// the coverage a successful answer from id provides.
	ownsTouched := make(map[string][]int)
	for _, s := range shards {
		for _, id := range replicas[s] {
			ownsTouched[id] = append(ownsTouched[id], s)
		}
	}

	type legResult struct {
		node  string
		rules []rules.Rule
		gen   uint64
		err   error
	}
	// Buffered to the member count: every node receives at most one leg
	// per query, so abandoned stragglers can always deposit their answer
	// and exit without a receiver.
	resCh := make(chan legResult, len(clients))

	assigned := make(map[string][]int) // node → shards its leg is responsible for
	launch := func(id, attempt string) {
		asked[id] = true
		legs++
		r.met.fanout.Add(1)
		c, h, rank := clients[id], health[id], legs
		h.outstanding.Add(1)
		go func() { //checkinv:allow goroleak — fan-out leg; result lands in the buffered channel above, which outlives abandoned legs
			legStart := r.rc.Now()
			ctx, cancel := context.WithTimeout(context.Background(), r.opt.RequestTimeout)
			rs, gen, err := c.Recommend(ctx, b, k, link)
			cancel()
			h.outstanding.Add(-1)
			ok := int64(1)
			if err != nil {
				ok = 0
				h.observeFailure()
				var te *TimeoutError
				if errors.As(err, &te) {
					r.met.timeouts.Add(1)
				}
			} else {
				h.observeSuccess()
			}
			// One span per leg, on its own rank track (the router's own
			// spans live on rank 0); the shared link attribute ties every
			// leg — primary, retry or hedge — back to its request span.
			r.rc.Record("fanout", obsv.CatRequest, rank, legStart, r.rc.Now(),
				obsv.String("link", link),
				obsv.String("node", id),
				obsv.String("attempt", attempt),
				obsv.Int("ok", ok))
			resCh <- legResult{node: id, rules: rs, gen: gen, err: err}
		}()
	}
	for _, s := range shards { // deterministic launch order: sorted shards
		id := pickByShard[s]
		fresh := !asked[id]
		assigned[id] = append(assigned[id], s)
		if fresh {
			launch(id, "primary")
		}
	}

	covered := make(map[int]bool, len(shards))
	allCovered := func() bool {
		for _, s := range shards {
			if !covered[s] {
				return false
			}
		}
		return true
	}
	// reissue sends the still-uncovered shards of shardList to untried
	// replicas (live ones first, Down ones as a last resort only when
	// lastResort is set) and returns how many new legs it launched.
	reissue := func(shardList []int, attempt string, lastResort bool) int {
		targets := make(map[string][]int)
		for _, s := range shardList {
			if covered[s] {
				continue
			}
			var fallback string
			picked := false
			for _, id := range replicas[s] {
				if _, already := targets[id]; already {
					// Another uncovered shard is already bound for this
					// replica; its answer will cover this shard too.
					targets[id] = append(targets[id], s)
					picked = true
					break
				}
				if asked[id] {
					continue
				}
				if health[id].State() == HealthDown {
					if fallback == "" {
						fallback = id
					}
					continue
				}
				targets[id] = append(targets[id], s)
				picked = true
				break
			}
			if !picked && lastResort && fallback != "" {
				targets[fallback] = append(targets[fallback], s)
			}
		}
		ids := make([]string, 0, len(targets))
		for id := range targets {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			assigned[id] = append(assigned[id], targets[id]...)
			launch(id, attempt)
		}
		return len(ids)
	}

	type answer struct {
		node  string
		rules []rules.Rule
		gen   uint64
	}
	var answers []answer
	pending := legs
	hedge := time.NewTimer(r.hedgeDelay())
	defer hedge.Stop()
	hedgeCh := hedge.C
	for pending > 0 && !allCovered() {
		select {
		case lr := <-resCh:
			pending--
			if lr.err != nil {
				// One retry for the failed leg's shards, against the next
				// untried replica — Down nodes included once nothing
				// else is left, so Partial is only ever declared after
				// every replica was actually tried.
				n := reissue(assigned[lr.node], "retry", true)
				retries += n
				r.met.retries.Add(int64(n))
				pending += n
				continue
			}
			answers = append(answers, answer{lr.node, lr.rules, lr.gen})
			for _, s := range ownsTouched[lr.node] {
				covered[s] = true
			}
		case <-hedgeCh:
			hedgeCh = nil // one-shot
			n := reissue(shards, "hedge", false)
			hedges += n
			r.met.hedges.Add(int64(n))
			pending += n
		}
	}

	// Coherence refresh: when the answers straddle a publish cut-over
	// (some nodes already at generation g+1, some still at g), re-query
	// the stale nodes — the cut-over is a pointer swap, so by the time the
	// skew is visible the laggard has almost always committed.  Bounded to
	// a small window; a node that stays stale (a partially failed publish)
	// leaves the answer Mixed exactly as before.
	if len(answers) > 1 {
		coherenceBy := time.Now().Add(minDur(20*time.Millisecond, r.opt.RequestTimeout/4))
		for {
			maxGen := uint64(0)
			for _, a := range answers {
				if a.gen > maxGen {
					maxGen = a.gen
				}
			}
			var stale []int
			for i, a := range answers {
				if a.gen < maxGen {
					stale = append(stale, i)
				}
			}
			if len(stale) == 0 || !time.Now().Before(coherenceBy) {
				break
			}
			improved := false
			for _, i := range stale {
				id := answers[i].node
				legs++
				r.met.fanout.Add(1)
				r.met.refreshes.Add(1)
				legStart := r.rc.Now()
				ctx, cancel := context.WithDeadline(context.Background(), coherenceBy)
				rs, gen, err := clients[id].Recommend(ctx, b, k, link)
				cancel()
				ok := int64(1)
				if err != nil {
					ok = 0
					health[id].observeFailure()
				} else {
					health[id].observeSuccess()
				}
				r.rc.Record("fanout", obsv.CatRequest, legs, legStart, r.rc.Now(),
					obsv.String("link", link),
					obsv.String("node", id),
					obsv.String("attempt", "refresh"),
					obsv.Int("ok", ok))
				if err == nil && gen > answers[i].gen {
					answers[i] = answer{id, rs, gen}
					improved = true
				}
			}
			if !improved {
				// The laggard's commit is in flight; give the swap one
				// scheduling quantum rather than spinning on it.
				time.Sleep(500 * time.Microsecond)
			}
		}
	}

	// Merge: answers in sorted node order (determinism), deduplicating
	// rules that arrived from two replicas of the same shard.  On a
	// mixed-generation race the newer generation's copy wins; RankTruncate
	// then ranks under the RankLess total order, so the result is
	// independent of which replicas happened to answer.
	sort.Slice(answers, func(i, j int) bool { return answers[i].node < answers[j].node })
	var matches []rules.Rule
	var genOf []uint64
	seen := make(map[string]int)
	for _, a := range answers {
		for _, rule := range a.rules {
			key := rule.Antecedent.Key() + "|" + rule.Consequent.Key()
			if j, ok := seen[key]; ok {
				if a.gen > genOf[j] {
					matches[j], genOf[j] = rule, a.gen
				}
				continue
			}
			seen[key] = len(matches)
			matches = append(matches, rule)
			genOf = append(genOf, a.gen)
		}
	}
	first := true
	for _, a := range answers {
		if first || a.gen < res.Generation {
			res.Generation = a.gen
		}
		if !first && a.gen != answers[0].gen {
			res.Mixed = true
		}
		first = false
	}
	for _, s := range shards {
		if !covered[s] {
			res.MissedShards = append(res.MissedShards, s)
		}
	}
	if len(res.MissedShards) > 0 {
		res.Partial = true
		partial = true
		r.met.partials.Add(1)
	}
	res.NodesQueried = len(asked)
	res.Retries = retries
	res.Hedges = hedges
	res.Rules = serve.RankTruncate(matches, k)
	return res, nil
}

// minDur returns the smaller of two durations.
func minDur(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}

// dedupInts removes adjacent duplicates from a sorted slice.
func dedupInts(s []int) []int {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}
