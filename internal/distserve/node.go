package distserve

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"parapriori/internal/itemset"
	"parapriori/internal/rules"
	"parapriori/internal/serve"
)

// GroupUpdate ships one antecedent group to a node: the shard it lives on
// and its rules in rank order (the antecedent is Rules[0].Antecedent).
type GroupUpdate struct {
	Shard int
	Rules []rules.Rule
}

// GroupRef names a group for removal: its shard and antecedent.
type GroupRef struct {
	Shard int
	Ant   itemset.Itemset
}

// PrepareRequest is phase one of a publish, addressed to one node: the new
// generation, the shards the node owns after the cut-over, and the delta to
// apply to its group store.  Full requests drop all prior state first (the
// full-rebuild path, and the recovery path for a node whose state the
// router no longer trusts).
type PrepareRequest struct {
	Gen     uint64
	Full    bool
	Owned   []int
	Upserts []GroupUpdate
	Removes []GroupRef
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
	groups map[int]map[string][]rules.Rule // shard → group key → rank-sorted rules
	owned  []int
	stage  *stagedState
}

// stagedState is a prepared-but-uncommitted generation: the group store and
// the index already built from it, waiting for the router's Commit.
type stagedState struct {
	gen    uint64
	groups map[int]map[string][]rules.Rule
	owned  []int
	idx    *serve.Index
}

// NewNode creates an empty node.  It answers ErrNoSnapshot until the first
// Prepare/Commit lands.  Call Close to stop its serving worker pool.
func NewNode(id string, opt serve.Options) *Node {
	return &Node{
		id:     id,
		opt:    opt,
		srv:    serve.NewServer(opt),
		groups: map[int]map[string][]rules.Rule{},
	}
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
	for _, byKey := range n.groups {
		for _, rs := range byKey {
			total += len(rs)
		}
	}
	return total
}

// Close stops the node's serving worker pool.
func (n *Node) Close() { n.srv.Close() }

// Prepare stages the next generation: it applies the delta to a copy of the
// committed group store (restricted to the shards the node owns after the
// cut-over), builds the new index off the query path, and holds both until
// Commit.  A Prepare at or below the committed generation is rejected; a
// newer Prepare replaces any staged one (the abort path: an aborted
// publish's staged state is simply superseded).  When nothing changed for
// this node, the committed index is reused instead of rebuilt, so a
// no-op-for-this-node delta publish costs one map copy.
func (n *Node) Prepare(req PrepareRequest) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if req.Gen <= n.gen.Load() {
		return fmt.Errorf("distserve: node %s: stale prepare gen %d (committed %d)", n.id, req.Gen, n.gen.Load())
	}
	ownedNew := append([]int(nil), req.Owned...)
	sort.Ints(ownedNew)
	ownedSet := make(map[int]bool, len(ownedNew))
	for _, s := range ownedNew {
		ownedSet[s] = true
	}

	// Reuse path: same shard set, no content change — keep the live index.
	if !req.Full && len(req.Upserts) == 0 && len(req.Removes) == 0 && equalInts(ownedNew, n.owned) {
		if idx := n.srv.Index(); idx != nil {
			n.stage = &stagedState{gen: req.Gen, groups: n.groups, owned: ownedNew, idx: idx}
			return nil
		}
	}

	// Copy the committed store, dropping shards no longer owned.  Inner
	// maps are copied shallowly; rule slices are immutable once shipped.
	next := make(map[int]map[string][]rules.Rule, len(ownedNew))
	if !req.Full {
		for _, s := range ownedNew {
			if byKey, ok := n.groups[s]; ok {
				cp := make(map[string][]rules.Rule, len(byKey))
				for k, v := range byKey {
					cp[k] = v
				}
				next[s] = cp
			}
		}
	}
	for _, s := range ownedNew {
		if next[s] == nil {
			next[s] = map[string][]rules.Rule{}
		}
	}

	for _, up := range req.Upserts {
		if !ownedSet[up.Shard] {
			return fmt.Errorf("distserve: node %s: upsert for unowned shard %d", n.id, up.Shard)
		}
		if len(up.Rules) == 0 {
			return fmt.Errorf("distserve: node %s: empty group upsert on shard %d", n.id, up.Shard)
		}
		next[up.Shard][up.Rules[0].Antecedent.Key()] = up.Rules
	}
	for _, rm := range req.Removes {
		if byKey, ok := next[rm.Shard]; ok {
			delete(byKey, rm.Ant.Key())
		}
	}

	n.stage = &stagedState{gen: req.Gen, groups: next, owned: ownedNew, idx: serve.NewIndex(flatten(next), n.opt)}
	return nil
}

// Commit cuts the traffic over to the generation staged by Prepare: the
// staged index becomes the serving snapshot (atomically, mid-flight queries
// finish on the old one) and the staged group store becomes the committed
// one.  Committing a generation that was never staged is an error.
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

// flatten lists every rule of a group store, iterating shards and keys in
// sorted order so the result — and everything built from it — is
// deterministic.
func flatten(groups map[int]map[string][]rules.Rule) []rules.Rule {
	shards := make([]int, 0, len(groups))
	for s := range groups {
		shards = append(shards, s)
	}
	sort.Ints(shards)
	var out []rules.Rule
	for _, s := range shards {
		byKey := groups[s]
		keys := make([]string, 0, len(byKey))
		for k := range byKey {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			out = append(out, byKey[k]...)
		}
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
