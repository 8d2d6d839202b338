package distserve

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"parapriori/internal/itemset"
	"parapriori/internal/rules"
	"parapriori/internal/serve"
)

// GroupUpdate is one antecedent group, as the router holds it, ships it and
// a node stores it: the shard it lives on and its rules in rank order (the
// antecedent is Rules[0].Antecedent).
type GroupUpdate struct {
	Shard int          `json:"shard"`
	Rules []rules.Rule `json:"rules"`
}

// ant returns the group's antecedent.
func (g GroupUpdate) ant() itemset.Itemset { return g.Rules[0].Antecedent }

// GroupRef names a group for removal: its shard and antecedent.
type GroupRef struct {
	Shard int             `json:"shard"`
	Ant   itemset.Itemset `json:"antecedent"`
}

// PrepareRequest is phase one of a publish, addressed to one node: the new
// generation, the shards the node owns after the cut-over, and the delta to
// apply to its group store.  Full requests drop all prior state first (the
// full-rebuild path, and the recovery path for a node whose state the
// router no longer trusts).  The JSON names are the /shard/prepare body's.
type PrepareRequest struct {
	Gen     uint64        `json:"generation"`
	Full    bool          `json:"full"`
	Owned   []int         `json:"owned"`
	Upserts []GroupUpdate `json:"upserts,omitempty"`
	Removes []GroupRef    `json:"removes,omitempty"`
}

// Node is one member of the serving fleet.  It owns a subset of the shards,
// keeps their antecedent groups, and serves basket queries from a
// serve.Server built over them — the single-node snapshot/cache/metrics
// machinery, one instance per node.  Control-plane calls (Prepare, Commit)
// take a mutex; the query path stays lock-free through the serve snapshot.
type Node struct {
	id  string
	opt serve.Options
	srv *serve.Server
	gen atomic.Uint64 // committed cluster generation

	mu     sync.Mutex
	groups []GroupUpdate // in strictly increasing antecedent order
	owned  []int
	stage  *stagedState
}

// stagedState is a prepared-but-uncommitted generation: the groups and the
// index already built from them, waiting for the router's Commit.
type stagedState struct {
	gen    uint64
	groups []GroupUpdate
	owned  []int
	idx    *serve.Index
}

// NewNode creates an empty node.  It answers ErrNoSnapshot until the first
// Prepare/Commit lands.  Call Close to stop its serving worker pool.
func NewNode(id string, opt serve.Options) *Node {
	return &Node{id: id, opt: opt, srv: serve.NewServer(opt)}
}

// ID returns the node's identity — the string placement hashes on.
func (n *Node) ID() string { return n.id }

// Gen returns the committed cluster generation, 0 before the first commit.
func (n *Node) Gen() uint64 { return n.gen.Load() }

// Server exposes the node's single-node serving surface (HTTP handler,
// metrics); the distributed control plane stays on the Node itself.
func (n *Node) Server() *serve.Server { return n.srv }

// Metrics returns the node's serving metrics.
func (n *Node) Metrics() serve.Metrics { return n.srv.Metrics() }

// Shards returns the node's committed owned shards, sorted.
func (n *Node) Shards() []int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]int(nil), n.owned...)
}

// NumRules returns the number of rules in the committed group store.
func (n *Node) NumRules() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	total := 0
	for _, g := range n.groups {
		total += len(g.Rules)
	}
	return total
}

// Close stops the node's serving worker pool.
func (n *Node) Close() { n.srv.Close() }

// Prepare stages the next generation: it applies the delta to the committed
// groups, builds the new index off the query path, and holds both until
// Commit.  A Prepare at or below the committed generation is rejected; a
// newer Prepare replaces any staged one (the abort path: an aborted
// publish's staged state is simply superseded).  When nothing changed for
// this node, the committed index is reused instead of rebuilt, so a
// no-op-for-this-node delta publish costs nothing.  It is the one check of
// a prepare, whichever transport carried it.  It refuses the whole request
// and stages nothing for a body the router could never send: a delta that
// moves the node's shards (placement is fixed, and a router's first prepare
// to a node is full), an upsert or removal on an unowned shard, a malformed
// group (checkGroup), a removal whose antecedent is not a set, or upserts
// or removes out of strictly increasing antecedent order.
func (n *Node) Prepare(req PrepareRequest) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if req.Gen <= n.gen.Load() {
		return fmt.Errorf("distserve: node %s: stale prepare gen %d (committed %d)", n.id, req.Gen, n.gen.Load())
	}
	owned := slices.Clone(req.Owned)
	slices.Sort(owned)
	if !req.Full && !slices.Equal(owned, n.owned) {
		return fmt.Errorf("distserve: node %s: delta prepare moves the owned shards %v to %v", n.id, n.owned, owned)
	}
	owns := func(s int) bool {
		_, ok := slices.BinarySearch(owned, s)
		return ok
	}
	for i, up := range req.Upserts {
		if !owns(up.Shard) {
			return fmt.Errorf("distserve: node %s: upsert for unowned shard %d", n.id, up.Shard)
		}
		if err := checkGroup(up.Rules); err != nil {
			return fmt.Errorf("distserve: node %s: upsert on shard %d: %w", n.id, up.Shard, err)
		}
		if i > 0 && req.Upserts[i-1].ant().Compare(up.ant()) >= 0 {
			return fmt.Errorf("distserve: node %s: upsert of %v after %v", n.id, up.ant(), req.Upserts[i-1].ant())
		}
	}
	for i, rm := range req.Removes {
		if !rm.Ant.Valid() {
			return fmt.Errorf("distserve: node %s: removal of %v on shard %d: not a set", n.id, rm.Ant, rm.Shard)
		}
		if !owns(rm.Shard) {
			return fmt.Errorf("distserve: node %s: removal on unowned shard %d", n.id, rm.Shard)
		}
		if i > 0 && req.Removes[i-1].Ant.Compare(rm.Ant) >= 0 {
			return fmt.Errorf("distserve: node %s: removal of %v after %v", n.id, rm.Ant, req.Removes[i-1].Ant)
		}
	}

	// Reuse path: same shard set, no content change — keep the live index.
	if !req.Full && len(req.Upserts) == 0 && len(req.Removes) == 0 {
		if idx := n.srv.Index(); idx != nil {
			n.stage = &stagedState{gen: req.Gen, groups: n.groups, owned: owned, idx: idx}
			return nil
		}
	}

	var base []GroupUpdate
	if !req.Full {
		base = n.groups
	}
	groups, rs := applyDelta(base, req.Upserts, req.Removes)
	n.stage = &stagedState{gen: req.Gen, groups: groups, owned: owned, idx: serve.NewIndex(rs, n.opt)}
	return nil
}

// applyDelta walks groups, upserts and removes — each in strictly increasing
// antecedent order — once, side by side: an upsert replaces the group of
// its antecedent or joins the list, and a removal drops it.  It returns the
// next group list, in the same order, and all its rules in one slice.
// Groups and their rule slices are shared, never written: they are
// immutable once shipped.
func applyDelta(groups, upserts []GroupUpdate, removes []GroupRef) ([]GroupUpdate, []rules.Rule) {
	next := make([]GroupUpdate, 0, len(groups)+len(upserts))
	total, i, j, k := 0, 0, 0, 0
	for i < len(groups) || j < len(upserts) {
		c := -1 // < 0: the group comes next; 0: the upsert replaces it; > 0: the upsert comes next
		switch {
		case i == len(groups):
			c = 1
		case j < len(upserts):
			c = groups[i].ant().Compare(upserts[j].ant())
		}
		var g GroupUpdate
		if c < 0 {
			g, i = groups[i], i+1
		} else {
			g, j = upserts[j], j+1
			if c == 0 {
				i++
			}
		}
		for k < len(removes) && removes[k].Ant.Compare(g.ant()) < 0 {
			k++
		}
		if k < len(removes) && removes[k].Ant.Equal(g.ant()) {
			k++
			continue
		}
		next = append(next, g)
		total += len(g.Rules)
	}
	rs := make([]rules.Rule, 0, total)
	for _, g := range next {
		rs = append(rs, g.Rules...)
	}
	return next, rs
}

// checkGroup refuses a group the router could never send, which the node
// would store under one key and serve for another basket: the rules must
// share one non-empty antecedent in strictly increasing order, and each
// consequent must be non-empty, strictly increasing and disjoint from it.
func checkGroup(rs []rules.Rule) error {
	if len(rs) == 0 {
		return fmt.Errorf("empty group")
	}
	ant := rs[0].Antecedent
	if len(ant) == 0 || !ant.Valid() {
		return fmt.Errorf("antecedent %v is not a non-empty set", ant)
	}
	for _, r := range rs {
		if !r.Antecedent.Equal(ant) {
			return fmt.Errorf("rule with antecedent %v in the group of %v", r.Antecedent, ant)
		}
		if len(r.Consequent) == 0 || !r.Consequent.Valid() {
			return fmt.Errorf("consequent %v of %v is not a non-empty set", r.Consequent, ant)
		}
		for _, it := range r.Consequent {
			if ant.Contains(it) {
				return fmt.Errorf("consequent %v overlaps its antecedent %v", r.Consequent, ant)
			}
		}
	}
	return nil
}

// Commit cuts the traffic over to the generation staged by Prepare: the
// staged index becomes the serving snapshot (atomically, mid-flight queries
// finish on the old one) and the staged groups become the committed ones.
// Committing a generation that was never staged is an error.
func (n *Node) Commit(gen uint64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stage == nil || n.stage.gen != gen {
		return fmt.Errorf("distserve: node %s: commit gen %d without matching prepare", n.id, gen)
	}
	if !n.srv.PublishAt(n.stage.idx, gen) {
		return fmt.Errorf("distserve: node %s: generation %d not above serving snapshot", n.id, gen)
	}
	n.groups = n.stage.groups
	n.owned = n.stage.owned
	n.gen.Store(gen)
	n.stage = nil
	return nil
}
