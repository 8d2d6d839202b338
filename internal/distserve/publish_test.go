package distserve

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"parapriori/internal/itemset"
	"parapriori/internal/rules"
	"parapriori/internal/serve"
)

// The reference publish below is the router's request assembly as it was
// when a publish diffed string-keyed maps: groups keyed by Itemset.Key in a
// map, canonical bytes and shards looked up by key, removals found by
// sorting the previous generation's keys and decoding each back into its
// antecedent.  TestPublishMatchesMapReference holds the merge-walk to it.

// refGroup is one antecedent group of the reference: its key, antecedent
// and rank-sorted rules.
type refGroup struct {
	key   string
	ant   itemset.Itemset
	rules []rules.Rule
}

// refGroups groups a rule set through a map of antecedent keys, each group
// rank-sorted, ordered by key.
func refGroups(rs []rules.Rule) []refGroup {
	byAnt := make(map[string][]rules.Rule, len(rs))
	for _, r := range rs {
		k := r.Antecedent.Key()
		byAnt[k] = append(byAnt[k], r)
	}
	keys := make([]string, 0, len(byAnt))
	for k := range byAnt {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]refGroup, 0, len(keys))
	for _, k := range keys {
		grp := byAnt[k]
		sort.Slice(grp, func(i, j int) bool { return rules.RankLess(grp[i], grp[j]) })
		out = append(out, refGroup{key: k, ant: refDecode(k), rules: grp})
	}
	return out
}

// refDecode decodes an Itemset.Key.
func refDecode(key string) itemset.Itemset {
	s := make(itemset.Itemset, 0, len(key)/4)
	for i := 0; i+4 <= len(key); i += 4 {
		s = append(s, itemset.Item(binary.BigEndian.Uint32([]byte(key[i:i+4]))))
	}
	return s
}

// refCanonical is the group's canonical bytes, written from its key.
func (g refGroup) refCanonical() []byte {
	var dst []byte
	dst = binary.AppendUvarint(dst, uint64(len(g.key)))
	dst = append(dst, g.key...)
	dst = binary.AppendUvarint(dst, uint64(len(g.rules)))
	for _, r := range g.rules {
		dst = binary.AppendUvarint(dst, uint64(4*len(r.Consequent)))
		dst = r.Consequent.AppendKey(dst)
		dst = binary.AppendVarint(dst, r.Count)
		for _, f := range [4]float64{r.Support, r.Confidence, r.Lift, r.Leverage} {
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(f))
		}
	}
	return dst
}

// refPublisher is the reference's publish state: the published groups'
// canonical bytes by key, and by node the shards it holds (nil after a
// failed commit).
type refPublisher struct {
	opt      Options
	replicas [][]int
	canon    map[string][]byte
	held     []map[int]bool
	gen      uint64
}

// requests assembles the reference's PrepareRequests and stats for
// publishing rs, and returns the canonical bytes the generation installs.
func (p *refPublisher) requests(rs []rules.Rule, full bool) ([]PrepareRequest, PublishStats, map[string][]byte) {
	prevKeys := make([]string, 0, len(p.canon))
	for k := range p.canon {
		prevKeys = append(prevKeys, k)
	}
	sort.Strings(prevKeys)
	var next []refGroup
	canonOf := map[string][]byte{}
	shardOf := map[string]int{}
	for _, g := range refGroups(rs) {
		if len(g.ant) == 0 {
			continue
		}
		next = append(next, g)
		canonOf[g.key] = g.refCanonical()
		shardOf[g.key] = p.opt.shardOf(g.ant[0])
	}
	owned := make([][]int, len(p.held))
	for s, reps := range p.replicas {
		for _, o := range reps {
			owned[o] = append(owned[o], s)
		}
	}
	stats := PublishStats{Gen: p.gen + 1, Full: full, Groups: len(next), Nodes: len(p.held)}
	reqs := make([]PrepareRequest, len(p.held))
	for i, heldShards := range p.held {
		fullNode := full || heldShards == nil
		req := PrepareRequest{Gen: p.gen + 1, Full: fullNode, Owned: owned[i]}
		ownedSet := map[int]bool{}
		for _, s := range owned[i] {
			ownedSet[s] = true
		}
		for _, g := range next {
			s := shardOf[g.key]
			if !ownedSet[s] {
				continue
			}
			if !fullNode && heldShards[s] {
				if prev, ok := p.canon[g.key]; ok && bytes.Equal(prev, canonOf[g.key]) {
					continue
				}
			}
			req.Upserts = append(req.Upserts, GroupUpdate{Shard: s, Rules: g.rules})
			stats.Upserts++
			stats.Bytes += int64(len(canonOf[g.key]))
		}
		if !fullNode {
			for _, k := range prevKeys {
				if _, still := canonOf[k]; still {
					continue
				}
				ant := refDecode(k)
				s := p.opt.shardOf(ant[0])
				if !ownedSet[s] || !heldShards[s] {
					continue
				}
				req.Removes = append(req.Removes, GroupRef{Shard: s, Ant: ant})
				stats.Removes++
				stats.Bytes += int64(len(k)) + 4
			}
		}
		reqs[i] = req
	}
	return reqs, stats, canonOf
}

// commit installs a generation in the reference state; failed lists, by
// ordinal, the nodes whose commit failed.
func (p *refPublisher) commit(canon map[string][]byte, failed []bool, owned [][]int) {
	p.gen++
	p.canon = canon
	for i := range p.held {
		p.held[i] = nil
		if !failed[i] {
			p.held[i] = map[int]bool{}
			for _, s := range owned[i] {
				p.held[i][s] = true
			}
		}
	}
}

// refNode is a node's group store as it was when it was keyed by
// Itemset.Key strings: shard → key → rank-sorted rules, copied and
// restricted to the owned shards on every prepare, and flattened in shard,
// then key order for the index.  TestPublishMatchesMapReference holds the
// node's merge-walk to it.
type refNode struct {
	groups, staged map[int]map[string][]rules.Rule
	idx, stagedIdx *serve.Index
}

func (n *refNode) prepare(req PrepareRequest) {
	next := make(map[int]map[string][]rules.Rule, len(req.Owned))
	for _, s := range req.Owned {
		next[s] = map[string][]rules.Rule{}
		if !req.Full {
			for k, v := range n.groups[s] {
				next[s][k] = v
			}
		}
	}
	for _, up := range req.Upserts {
		next[up.Shard][up.Rules[0].Antecedent.Key()] = up.Rules
	}
	for _, rm := range req.Removes {
		if byKey, ok := next[rm.Shard]; ok {
			delete(byKey, rm.Ant.Key())
		}
	}
	n.staged, n.stagedIdx = next, serve.NewIndex(refFlatten(next), serve.Options{})
}

func (n *refNode) commit() { n.groups, n.idx = n.staged, n.stagedIdx }

// refFlatten lists every rule of a group store, shards and keys in sorted
// order.
func refFlatten(groups map[int]map[string][]rules.Rule) []rules.Rule {
	shards := make([]int, 0, len(groups))
	for s := range groups {
		shards = append(shards, s)
	}
	sort.Ints(shards)
	var out []rules.Rule
	for _, s := range shards {
		keys := make([]string, 0, len(groups[s]))
		for k := range groups[s] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			out = append(out, groups[s][k]...)
		}
	}
	return out
}

// allRules is what an index serves, nothing before the first commit.
func allRules(ix *serve.Index) []rules.Rule {
	if ix == nil {
		return nil
	}
	return ix.All()
}

// diffClient is a node's client that keeps the last PrepareRequest it
// carried, applies every request it carries to a reference node too, and
// can refuse a commit.
type diffClient struct {
	*LocalClient
	last       PrepareRequest
	ref        refNode
	failCommit bool
}

func (c *diffClient) Prepare(ctx context.Context, req PrepareRequest) error {
	c.last = req
	if err := c.LocalClient.Prepare(ctx, req); err != nil {
		return err
	}
	c.ref.prepare(req)
	return nil
}

func (c *diffClient) Commit(ctx context.Context, gen uint64) error {
	if c.failCommit {
		return fmt.Errorf("%w: %s refused the commit", ErrNodeDown, c.ID())
	}
	if err := c.LocalClient.Commit(ctx, gen); err != nil {
		return err
	}
	c.ref.commit()
	return nil
}

// nextGeneration perturbs a rule set the ways a re-mine does: rules keep,
// change a measure or vanish, whole groups vanish, rules on new and on
// existing antecedents appear, now and then a rule with an empty
// antecedent comes along, and the order is shuffled.
func nextGeneration(rng *rand.Rand, cur []rules.Rule, nItems int) []rules.Rule {
	gone := map[string]bool{}
	for range rng.Intn(3) {
		gone[cur[rng.Intn(len(cur))].Antecedent.Key()] = true
	}
	var out []rules.Rule
	seen := map[string]bool{}
	for _, r := range cur {
		if gone[r.Antecedent.Key()] || rng.Intn(20) == 0 {
			continue
		}
		if rng.Intn(12) == 0 {
			r.Confidence = float64(1+rng.Intn(20)) / 20
		}
		seen[r.Antecedent.Key()+"|"+r.Consequent.Key()] = true
		out = append(out, r)
	}
	for _, r := range synthRules(10, nItems, rng.Int63()) {
		if k := r.Antecedent.Key() + "|" + r.Consequent.Key(); !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	if rng.Intn(4) == 0 {
		out = append(out, rules.Rule{Consequent: itemset.New(0), Confidence: 1, Support: 0.5})
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// TestPublishMatchesMapReference drives the router and the map-based
// reference through seeded sequences of generations — changed, added and
// removed groups, full publishes, and nodes whose commit failed and who are
// resent in full — at R = 1 and R = 2: every node must be sent the same
// PrepareRequest, every publish must report the same PublishStats, and
// after it every node must serve the same index as the map-keyed reference
// node that was sent the same requests.
func TestPublishMatchesMapReference(t *testing.T) {
	const nodes, nItems = 4, 24
	for _, replicas := range []int{1, 2} {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("r%d/seed%d", replicas, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				opt := Options{Shards: 8, Replicas: replicas, Seed: uint64(seed)}.WithDefaults()
				cs := make([]*diffClient, nodes)
				clients := make([]Client, nodes)
				for i := range cs {
					n := NewNode(fmt.Sprintf("node%02d", i), serve.Options{})
					t.Cleanup(n.Close)
					cs[i] = &diffClient{LocalClient: &LocalClient{node: n}}
					clients[i] = cs[i]
				}
				router, err := NewRouter(clients, opt)
				if err != nil {
					t.Fatal(err)
				}
				ref := &refPublisher{opt: opt, replicas: router.replicas, held: make([]map[int]bool, nodes)}
				rs := synthRules(60, nItems, seed)
				fulls, resends, removes := 0, 0, 0
				for gen := 1; gen <= 14; gen++ {
					full := gen == 7 || gen > 1 && rng.Intn(6) == 0
					failed := make([]bool, nodes)
					if gen == 3 || gen < 14 && rng.Intn(4) == 0 {
						failed[rng.Intn(nodes)] = true
					}
					for i, c := range cs {
						c.failCommit = failed[i]
						if !full && gen > 1 && ref.held[i] == nil {
							resends++
						}
					}
					if full {
						fulls++
					}
					want, wantStats, canon := ref.requests(rs, full)
					got, err := router.Publish(rs, full)
					if (err != nil) != slices.Contains(failed, true) {
						t.Fatalf("gen %d: Publish error %v, commit failures %v", gen, err, failed)
					}
					removes += got.Removes
					if got != wantStats {
						t.Fatalf("gen %d: stats %+v, reference %+v", gen, got, wantStats)
					}
					for i, c := range cs {
						if !reflect.DeepEqual(c.last, want[i]) {
							t.Fatalf("gen %d node %d: request\n%+v\nreference\n%+v", gen, i, c.last, want[i])
						}
						served, refServed := allRules(c.node.Server().Index()), allRules(c.ref.idx)
						if !reflect.DeepEqual(served, refServed) || c.node.NumRules() != len(refServed) {
							t.Fatalf("gen %d node %d: serves %d rules (%d stored)\n%v\nreference node %d\n%v", gen, i, len(served), c.node.NumRules(), served, len(refServed), refServed)
						}
					}
					owned := make([][]int, nodes)
					for i := range owned {
						owned[i] = want[i].Owned
					}
					ref.commit(canon, failed, owned)
					rs = nextGeneration(rng, rs, nItems)
				}
				if fulls == 0 || resends == 0 || removes == 0 {
					t.Fatalf("sequence had %d full publishes, %d resends to a failed node and %d removes; want each", fulls, resends, removes)
				}
			})
		}
	}
}

// BenchmarkDeltaPublish prices one delta publish in serve-churn's shape: a
// four-node, two-replica fleet over 64 shards, publishing in turn two
// variants of 32 000 rules, each with its own twentieth of the rules'
// confidence changed, so every publish ships the groups of a tenth of the
// rules.
func BenchmarkDeltaPublish(b *testing.B) {
	c, err := NewCluster(4, Options{Shards: 64, Replicas: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	base := synthRules(32000, 100, 1)
	var variants [2][]rules.Rule
	for v := range variants {
		variants[v] = slices.Clone(base)
		for i := v; i < len(base); i += 20 {
			variants[v][i].Confidence *= 0.97
		}
	}
	if _, err := c.Router.Publish(variants[0], true); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := c.Router.Publish(variants[(i+1)%2], false)
		if err != nil || st.Upserts == 0 {
			b.Fatalf("delta publish: %+v %v", st, err)
		}
	}
}
