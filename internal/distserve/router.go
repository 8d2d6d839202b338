package distserve

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
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
	// after it returns, so every path reads them without a lock.  A node's
	// ordinal is its index in ids; the per-node slices are indexed by it.
	ids      []string      // sorted node IDs
	clients  []Client      // by ordinal
	health   []*nodeHealth // failure-detector state, by ordinal
	replicas [][]int       // shard → top-R node ordinals in HRW order (element 0 is the primary)
	owned    [][]int       // by ordinal: the shards the node is a replica of, ascending

	// pubMu serializes publishes — the control plane.  The query path
	// never takes it.
	pubMu sync.Mutex

	// mu guards the publish state: the published groups and per-node
	// bookkeeping.  Queries hold it only to read gen and held.
	mu sync.RWMutex
	// pub is the generation gen as published: its groups in antecedent
	// order, the list the next publish is diffed against.
	pub []ruleGroup
	// held reports, by ordinal, whether the node holds its owned shards'
	// groups at gen.  False means the node's last commit failed (or it has
	// had none), so its state is untrusted — its next publish resends
	// fully — and it lags gen.  Each publish installs a new slice and never
	// writes an installed one, so a query reads the slice it took under mu
	// without the lock.
	held []bool
	gen  uint64

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
		opt:    opt,
		flight: obsv.NewFlight(obsv.ClockReal, 0),
	}
	r.rc = obsv.NewRealClock(r.flight)
	r.rc.SetMeta("tier", "router")
	r.met.start = time.Now()
	r.clients = slices.Clone(clients)
	slices.SortFunc(r.clients, func(a, b Client) int { return strings.Compare(a.ID(), b.ID()) })
	for i, c := range r.clients {
		if i > 0 && c.ID() == r.ids[i-1] {
			return nil, fmt.Errorf("distserve: duplicate node ID %q", c.ID())
		}
		r.ids = append(r.ids, c.ID())
		r.health = append(r.health, &nodeHealth{})
	}
	r.held = make([]bool, len(r.ids))
	r.owned = make([][]int, len(r.ids))
	for s, reps := range PlaceReplicas(r.opt.Seed, r.opt.Shards, r.opt.Replicas, r.ids) {
		ords := make([]int, len(reps))
		for i, id := range reps {
			ords[i], _ = slices.BinarySearch(r.ids, id)
			r.owned[ords[i]] = append(r.owned[ords[i]], s)
		}
		r.replicas = append(r.replicas, ords)
	}
	return r, nil
}

// Placement returns a copy of the shard → primary-node assignment (each
// shard's top rendezvous candidate; the full replica sets are Replicas).
func (r *Router) Placement() []string {
	out := make([]string, len(r.replicas))
	for s, reps := range r.replicas {
		out[s] = r.ids[reps[0]]
	}
	return out
}

// Replicas returns a copy of the shard → replica-set assignment, each
// shard's top-R nodes in descending rendezvous-weight order.
func (r *Router) Replicas() [][]string {
	out := make([][]string, len(r.replicas))
	for s, reps := range r.replicas {
		out[s] = make([]string, len(reps))
		for i, o := range reps {
			out[s][i] = r.ids[o]
		}
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
	// Upserts and Removes count group updates shipped across all nodes:
	// a prepare round run again at a lifted generation, or a full resend
	// to a node that refused its delta, counts what it ships too.
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
// The router and in-process nodes keep the rules, so rs must not be
// modified afterwards; Publish does not reorder it.
func (r *Router) Publish(rs []rules.Rule, full bool) (PublishStats, error) {
	r.pubMu.Lock()
	defer r.pubMu.Unlock()
	return r.publish(groupRules(rs), full)
}

// ruleGroup is one antecedent group — the unit of shard placement and delta
// publishing — with, once a publish has placed it, its shard and canonical
// bytes.
type ruleGroup struct {
	GroupUpdate
	canon []byte
}

// groupRules decomposes a rule set into its antecedent groups in
// Itemset.Compare order, each rank-sorted, dropping the rules with an empty
// antecedent (see Publish).  One sort (rules.Group) orders the rules by
// antecedent and then rank, so each group is a run; the result is the same
// whatever the input order.
func groupRules(rs []rules.Rule) []ruleGroup {
	grouped := make([]rules.Rule, 0, len(rs))
	for _, r := range rs {
		if len(r.Antecedent) > 0 {
			grouped = append(grouped, r)
		}
	}
	rules.Group(grouped)
	var out []ruleGroup
	for lo := 0; lo < len(grouped); {
		ant, hi := grouped[lo].Antecedent, lo+1
		for hi < len(grouped) && grouped[hi].Antecedent.Equal(ant) {
			hi++
		}
		out = append(out, ruleGroup{GroupUpdate: GroupUpdate{Rules: grouped[lo:hi:hi]}})
		lo = hi
	}
	return out
}

// canonical returns the group's canonical byte encoding: the antecedent's
// key bytes (Itemset.AppendKey), then each rule's consequent key bytes,
// count and quality measures (IEEE-754 bits), every variable-length field
// length-prefixed.  Two groups encode to the same bytes iff they hold the
// same antecedent and the same rules in the same rank order, so canonical
// bytes are the change detector for delta publishing — and their length is
// the wire-cost measure of shipping the group.
func (g ruleGroup) canonical() []byte {
	ant := g.ant()
	n := 8 + 4*len(ant)
	for _, r := range g.Rules {
		n += 8 + 4*len(r.Consequent) + 8 + 4*8
	}
	dst := make([]byte, 0, n)
	dst = binary.AppendUvarint(dst, uint64(4*len(ant)))
	dst = ant.AppendKey(dst)
	dst = binary.AppendUvarint(dst, uint64(len(g.Rules)))
	for _, r := range g.Rules {
		dst = binary.AppendUvarint(dst, uint64(4*len(r.Consequent)))
		dst = r.Consequent.AppendKey(dst)
		dst = binary.AppendVarint(dst, r.Count)
		for _, f := range [4]float64{r.Support, r.Confidence, r.Lift, r.Leverage} {
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(f))
		}
	}
	return dst
}

// publish runs the two-phase protocol for a group list in antecedent
// order.  The caller holds pubMu.
func (r *Router) publish(next []ruleGroup, full bool) (PublishStats, error) {
	ids := r.ids
	r.mu.RLock()
	prev, held, gen := r.pub, r.held, r.gen
	r.mu.RUnlock()
	// The control plane runs under a budget far above the query deadline:
	// prepares ship real payloads and build indexes.
	pubCtx, pubCancel := context.WithTimeout(context.Background(), 15*r.opt.RequestTimeout)
	defer pubCancel()
	// A router that has committed nothing may be a restarted one over a
	// fleet that has: number the publish above the highest generation a
	// node reports, so no node is sent a round it must refuse as stale.
	if gen == 0 {
		gen = r.committedGen(pubCtx)
	}
	newGen := gen + 1

	// Place each group, and walk the two antecedent-ordered lists once:
	// changed[i] reports whether group i differs from what the previous
	// generation published under its antecedent, and gone lists the
	// previous groups whose antecedent vanished, in antecedent order.
	changed := make([]bool, len(next))
	var gone []ruleGroup
	j := 0
	for i := range next {
		g := &next[i]
		ant := g.ant()
		g.Shard, g.canon = r.opt.shardOf(ant[0]), g.canonical()
		for j < len(prev) && prev[j].ant().Compare(ant) < 0 {
			gone = append(gone, prev[j])
			j++
		}
		changed[i] = true
		if j < len(prev) && prev[j].ant().Equal(ant) {
			changed[i] = !bytes.Equal(prev[j].canon, g.canon)
			j++
		}
	}
	gone = append(gone, prev[j:]...)

	// Phase 1: stage everywhere.  A node that holds the previous generation
	// gets a delta, any other a full request.  Any failure aborts with the
	// previous generation still serving on every node — staged state is
	// simply superseded by the next publish's higher generation.
	stats := PublishStats{Gen: newGen, Full: full, Groups: len(next), Nodes: len(ids)}
	sendFull := make([]bool, len(ids))
	for i := range ids {
		sendFull[i] = full || !held[i]
	}
	reqs := r.requests(newGen, sendFull, next, changed, gone, &stats)
	prepErrs := r.prepare(pubCtx, reqs, nil, stats)
	// A node that refuses the generation as stale has committed a later one
	// than this router knows of and could not report it above: the router
	// restarted.  Lift the generation above the highest one committed and
	// run the round again, once.
	var stale *StaleError
	for _, err := range prepErrs {
		if errors.As(err, &stale) {
			newGen = max(newGen, stale.Committed+1)
		}
	}
	if newGen != stats.Gen {
		stats.Gen = newGen
		reqs = r.requests(newGen, sendFull, next, changed, gone, &stats)
		prepErrs = r.prepare(pubCtx, reqs, nil, stats)
	}
	// A node that refuses its delta for want of a committed generation
	// restarted empty: send it all of its shards' groups, once, in this
	// publish.
	needFull := make([]bool, len(ids))
	for i, err := range prepErrs {
		needFull[i] = errors.Is(err, ErrNeedFull)
	}
	if slices.Contains(needFull, true) {
		reqs = r.requests(newGen, needFull, next, nil, nil, &stats)
		for i, err := range r.prepare(pubCtx, reqs, needFull, stats) {
			if needFull[i] {
				prepErrs[i] = err
			}
		}
	}
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
	var wg sync.WaitGroup
	for i, c := range r.clients {
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

	var failed []string
	nextHeld := make([]bool, len(ids))
	for i, id := range ids {
		if commitErrs[i] != nil {
			failed = append(failed, id)
			continue
		}
		nextHeld[i] = true
	}
	r.mu.Lock()
	r.gen = newGen
	r.pub = next
	r.held = nextHeld
	r.mu.Unlock()

	if len(failed) > 0 {
		return stats, fmt.Errorf("distserve: publish gen %d committed partially: commit failed on %v", newGen, failed)
	}
	return stats, nil
}

// committedGen returns the highest snapshot generation the nodes report
// through their metrics, read in parallel under the query deadline.  A node
// that does not answer counts as 0: the stale lift in publish covers it.
func (r *Router) committedGen(ctx context.Context) uint64 {
	ctx, cancel := context.WithTimeout(ctx, r.opt.RequestTimeout)
	defer cancel()
	gens := make([]uint64, len(r.clients))
	var wg sync.WaitGroup
	for i, c := range r.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if m, err := c.Metrics(ctx); err == nil {
				gens[i] = m.SnapshotGeneration
			}
		}()
	}
	wg.Wait()
	return slices.Max(gens)
}

// requests assembles one PrepareRequest per node at generation gen: a node
// with full[i] gets all of its shards' groups, any other its shards'
// changed groups and the tombstones of its shards' gone ones (a nil changed
// marks no group changed).  Each group goes to the replicas of its shard,
// in antecedent order.  It adds what it assembles to stats.
func (r *Router) requests(gen uint64, full []bool, next []ruleGroup, changed []bool, gone []ruleGroup, stats *PublishStats) []PrepareRequest {
	reqs := make([]PrepareRequest, len(r.ids))
	for i := range reqs {
		reqs[i] = PrepareRequest{Gen: gen, Full: full[i], Owned: r.owned[i]}
	}
	for gi, g := range next {
		for _, o := range r.replicas[g.Shard] {
			if full[o] || (changed != nil && changed[gi]) {
				reqs[o].Upserts = append(reqs[o].Upserts, g.GroupUpdate)
				stats.Upserts++
				stats.Bytes += int64(len(g.canon))
			}
		}
	}
	for _, g := range gone {
		for _, o := range r.replicas[g.Shard] {
			if !full[o] {
				reqs[o].Removes = append(reqs[o].Removes, GroupRef{Shard: g.Shard, Ant: g.ant()})
				stats.Removes++
				stats.Bytes += int64(4*len(g.ant())) + 4
			}
		}
	}
	return reqs
}

// prepare sends each node its request, in parallel — every node, or with
// a non-nil only the nodes it marks — and returns each node's error.  It
// records one prepare span, with the publish's totals so far.
func (r *Router) prepare(ctx context.Context, reqs []PrepareRequest, only []bool, stats PublishStats) []error {
	start := r.rc.Now()
	errs := make([]error, len(reqs))
	sent := 0
	var wg sync.WaitGroup
	for i, c := range r.clients {
		if only != nil && !only[i] {
			continue
		}
		sent++
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.Prepare(ctx, reqs[i])
		}()
	}
	wg.Wait()
	r.rc.Record("prepare", obsv.CatPublish, 0, start, r.rc.Now(),
		obsv.Int("generation", int64(stats.Gen)),
		obsv.Int("nodes", int64(sent)),
		obsv.Int("upserts", int64(stats.Upserts)),
		obsv.Int("removes", int64(stats.Removes)),
		obsv.Int("bytes", stats.Bytes))
	return errs
}

// Result is one distributed basket query's answer, and the body of the
// router's /recommend: a node's serve.Answer, then the routing facts.
type Result struct {
	// Answer's Rules is the global top-K under rules.RankLess —
	// bit-identical to a single-node Recommend over the union of the
	// shards that answered.  Its Generation is the lowest cluster
	// generation among the nodes that answered; Mixed reports whether
	// they disagreed (a publish was cutting over mid-query).
	serve.Answer
	Mixed bool `json:"mixed,omitempty"`
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
	res := &Result{Answer: serve.Answer{Basket: b}}
	n := len(r.ids)
	var asked []bool // by ordinal: the node was sent a leg
	defer func() {
		end := time.Now()
		r.met.latency.ObserveAt(end.Sub(start), end, func() serve.Exemplar {
			nodes := make([]string, 0, n)
			for o, ok := range asked {
				if ok {
					nodes = append(nodes, r.ids[o])
				}
			}
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
	gen, held := r.gen, r.held
	r.mu.RUnlock()
	if gen == 0 {
		return nil, serve.ErrNoSnapshot
	}
	replicas, health := r.replicas, r.health

	// The shards this basket can touch: one per distinct item.  Every
	// antecedent ⊆ basket has its first item in the basket, and a group's
	// shard is a function of its first item, so no other shard can hold a
	// matching group.
	//
	// The query's bookkeeping is carved from one allocation per element
	// type, sized by the basket, the member count n and the m touched
	// shards: per-node slices are indexed by ordinal, per-shard ones by
	// the shard's position in shards.  Every shard has the same replica
	// count, so m of them have at most m·R live candidates.
	ints := make([]int, len(b)*(4+len(replicas[0]))+1)
	shards := carve(&ints, len(b))[:0]
	for _, it := range b {
		shards = append(shards, r.opt.shardOf(it))
	}
	slices.Sort(shards)
	shards = slices.Compact(shards)
	m := len(shards)

	if m == 0 { // empty basket: nothing can match
		res.Generation = gen
		return res, nil
	}
	at := carve(&ints, m+1)   // shard i's live candidates are live[at[i]:at[i+1]]
	pick := carve(&ints, m)   // shard i's initial leg
	target := carve(&ints, m) // shard i's reissue target, or -1
	live := carve(&ints, m*len(replicas[0]))[:0]
	flags := make([]bool, 2*n+m+n*m)
	asked = carve(&flags, n)
	bound := carve(&flags, n) // by ordinal: a reissue leg goes to the node
	covered := carve(&flags, m)
	assigned := carve(&flags, n*m) // assigned[o*m+i]: node o's leg answers for shards[i]
	answers := make([]answer, 0, n)

	// Initial leg per shard group: shards with the same live candidate
	// list form one group, and each group gets one choice-of-two pick —
	// shards choosing the same node then share one leg (a node answers
	// over all its owned shards at once).  A shard's live candidates are
	// its replicas still standing; one whose replicas are all Down keeps
	// its full list — the desperation floor is trying a Down node, not
	// answering Partial untried.
	for i, s := range shards {
		for _, o := range replicas[s] {
			if health[o].State() != HealthDown {
				live = append(live, o)
			}
		}
		if len(live) == at[i] {
			live = append(live, replicas[s]...)
		}
		at[i+1] = len(live)
		cands := live[at[i]:]
		pick[i] = -1
		for j := range i {
			if slices.Equal(live[at[j]:at[j+1]], cands) {
				pick[i] = pick[j]
				break
			}
		}
		if pick[i] < 0 {
			pick[i] = r.pick2(cands)
		}
	}

	// Buffered to the member count: every node receives at most one leg
	// per query, so abandoned stragglers can always deposit their answer
	// and exit without a receiver.
	resCh := make(chan legResult, n)

	launch := func(o int, attempt string) {
		asked[o] = true
		legs++
		r.met.fanout.Add(1)
		health[o].outstanding.Add(1)
		go r.leg(o, legs, attempt, b, k, link, resCh) //checkinv:allow goroleak — fan-out leg; result lands in the buffered channel above, which outlives abandoned legs
	}
	for i, o := range pick { // deterministic launch order: sorted shards
		assigned[o*m+i] = true
		if !asked[o] {
			launch(o, "primary")
		}
	}

	// reissue sends the still-uncovered shards among only (every shard when
	// only is nil) to untried replicas — live ones first, Down ones as a
	// last resort only when lastResort is set — and returns how many new
	// legs it launched, in node order.
	reissue := func(only []bool, attempt string, lastResort bool) int {
		clear(bound)
		for i, s := range shards {
			target[i] = -1
			if covered[i] || (only != nil && !only[i]) {
				continue
			}
			fallback := -1
			for _, o := range replicas[s] {
				if bound[o] {
					// Another uncovered shard is already bound for this
					// replica; its answer will cover this shard too.
					target[i] = o
					break
				}
				if asked[o] {
					continue
				}
				if health[o].State() == HealthDown {
					if fallback < 0 {
						fallback = o
					}
					continue
				}
				target[i], bound[o] = o, true
				break
			}
			if target[i] < 0 && lastResort && fallback >= 0 {
				target[i], bound[fallback] = fallback, true
			}
		}
		launched := 0
		for o, ok := range bound {
			if !ok {
				continue
			}
			for i, t := range target {
				if t == o {
					assigned[o*m+i] = true
				}
			}
			launch(o, attempt)
			launched++
		}
		return launched
	}

	pending := legs
	hedge := time.NewTimer(r.hedgeDelay())
	defer hedge.Stop()
	hedgeCh := hedge.C
	for pending > 0 && slices.Contains(covered, false) {
		select {
		case lr := <-resCh:
			pending--
			if lr.err != nil {
				// One retry for the failed leg's shards, against the next
				// untried replica — Down nodes included once nothing
				// else is left, so Partial is only ever declared after
				// every replica was actually tried.
				n := reissue(assigned[lr.node*m:(lr.node+1)*m], "retry", true)
				retries += n
				r.met.retries.Add(int64(n))
				pending += n
				continue
			}
			answers = append(answers, answer{node: lr.node, rules: lr.rules, gen: lr.gen})
			// A node's answer covers every touched shard it holds a
			// replica of.
			for i, s := range shards {
				if slices.Contains(replicas[s], lr.node) {
					covered[i] = true
				}
			}
		case <-hedgeCh:
			hedgeCh = nil // one-shot
			n := reissue(nil, "hedge", false)
			hedges += n
			r.met.hedges.Add(int64(n))
			pending += n
		}
	}

	// Coherence refresh: when the answers straddle a publish cut-over
	// (some nodes already at generation g+1, some still at g), re-query
	// the stale nodes — the cut-over is a pointer swap, so by the time the
	// skew is visible the laggard has almost always committed.  Bounded to
	// a small window.  A node whose last commit failed stays stale until
	// the next publish, so it is never re-queried: its answer leaves the
	// result Mixed at once.
	if len(answers) > 1 {
		coherenceBy := time.Now().Add(min(20*time.Millisecond, r.opt.RequestTimeout/4))
		for {
			maxGen := uint64(0)
			for _, a := range answers {
				maxGen = max(maxGen, a.gen)
			}
			refreshable := func(a answer) bool { return a.gen < maxGen && held[a.node] }
			if !slices.ContainsFunc(answers, refreshable) || !time.Now().Before(coherenceBy) {
				break
			}
			improved := false
			for i, a := range answers {
				if !refreshable(a) {
					continue
				}
				legs++
				r.met.fanout.Add(1)
				r.met.refreshes.Add(1)
				health[a.node].outstanding.Add(1)
				lr := r.call(a.node, legs, "refresh", b, k, link, coherenceBy)
				if lr.err == nil && lr.gen > a.gen {
					answers[i] = answer{node: a.node, rules: lr.rules, gen: lr.gen}
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

	// Merge the answers in node order (determinism).  Generation is the
	// lowest among them (0 when none arrived); Mixed reports that they
	// disagreed.
	slices.SortFunc(answers, func(a, b answer) int { return a.node - b.node })
	for i, a := range answers {
		if i == 0 || a.gen < res.Generation {
			res.Generation = a.gen
		}
		res.Mixed = res.Mixed || a.gen != answers[0].gen
	}
	res.Rules = mergeAnswers(answers, k)
	for i, s := range shards {
		if !covered[i] {
			res.MissedShards = append(res.MissedShards, s)
		}
	}
	if len(res.MissedShards) > 0 {
		res.Partial = true
		partial = true
		r.met.partials.Add(1)
	}
	for _, ok := range asked {
		if ok {
			res.NodesQueried++
		}
	}
	res.Retries = retries
	res.Hedges = hedges
	return res, nil
}

// legResult is what one fan-out leg reports back to its query.
type legResult struct {
	node  int // ordinal
	rules []rules.Rule
	gen   uint64
	err   error
}

// leg runs one fan-out leg against node o under Options.RequestTimeout on
// its own goroutine and deposits the result in out.
func (r *Router) leg(o, rank int, attempt string, b itemset.Itemset, k int, link string, out chan<- legResult) {
	out <- r.call(o, rank, attempt, b, k, link, time.Now().Add(r.opt.RequestTimeout))
}

// call queries node o until deadline, feeds the outcome to the node's
// failure detector, counts a timeout and records the leg's span: one per
// leg, on its own rank track (the router's own spans live on rank 0),
// whose link attribute ties every leg — primary, retry, hedge or refresh —
// back to its request span.  The caller counted the leg as outstanding;
// call ends that count.
func (r *Router) call(o, rank int, attempt string, b itemset.Itemset, k int, link string, deadline time.Time) legResult {
	h := r.health[o]
	legStart := r.rc.Now()
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	rs, gen, err := r.clients[o].Recommend(ctx, b, k, link)
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
	r.rc.Record("fanout", obsv.CatRequest, rank, legStart, r.rc.Now(),
		obsv.String("link", link),
		obsv.String("node", r.ids[o]),
		obsv.String("attempt", attempt),
		obsv.Int("ok", ok))
	return legResult{node: o, rules: rs, gen: gen, err: err}
}

// answer is one node's reply: its local top-K in RankLess order and the
// generation it served from.  next is mergeAnswers' cursor into rules.
type answer struct {
	node  int // ordinal
	rules []rules.Rule
	gen   uint64
	next  int
}

// mergeAnswers merges the answers, in node order, into the global top k.
// Each answer is already in RankLess order, so a k-way merge takes the
// lowest head each step (the lowest node's on a tie) and stops at k rules.
// A rule that several answers hold is kept once: the copy from the newest
// generation, and among copies of one generation the lowest node's.  Every
// owner holds a generation's groups as the same bytes, so one generation's
// copies of a rule are equal and come off the heads back to back, and a
// copy is dropped when an answer from a newer generation holds the rule
// (newerCopy looks no further than a generation comparison per answer
// when all answers share one generation).  The result is the deduplicated
// union ranked under the RankLess total order and cut to k, independent of
// which replicas answered.
//
//checkinv:hotpath
func mergeAnswers(answers []answer, k int) []rules.Rule {
	total := 0
	for _, a := range answers {
		total += len(a.rules)
	}
	if total == 0 {
		return nil
	}
	out := make([]rules.Rule, 0, min(k, total))
	for len(out) < k {
		best := -1
		for i := range answers {
			a := &answers[i]
			if a.next == len(a.rules) {
				continue
			}
			if best < 0 || rules.RankLess(a.rules[a.next], answers[best].rules[answers[best].next]) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		a := &answers[best]
		rule := a.rules[a.next]
		a.next++
		if len(out) > 0 && sameRule(out[len(out)-1], rule) {
			continue
		}
		if newerCopy(answers, a.gen, rule) {
			continue
		}
		out = append(out, rule)
	}
	return out
}

// newerCopy reports whether an answer from a generation newer than gen
// holds a rule with rule's antecedent and consequent.
func newerCopy(answers []answer, gen uint64, rule rules.Rule) bool {
	for _, a := range answers {
		if a.gen <= gen {
			continue
		}
		for _, x := range a.rules {
			if sameRule(x, rule) {
				return true
			}
		}
	}
	return false
}

// sameRule reports whether two rules have the same antecedent and
// consequent.
func sameRule(a, b rules.Rule) bool {
	return a.Antecedent.Equal(b.Antecedent) && a.Consequent.Equal(b.Consequent)
}

// carve cuts the next n elements off the front of *buf.
func carve[T any](buf *[]T, n int) []T {
	s := (*buf)[:n:n]
	*buf = (*buf)[n:]
	return s
}
