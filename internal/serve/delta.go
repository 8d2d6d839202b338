package serve

import (
	"encoding/binary"
	"math"
	"sort"

	"parapriori/internal/itemset"
	"parapriori/internal/rules"
)

// RuleGroup is one distinct antecedent and its rules in serving-rank order —
// the unit of distributed shard placement and delta publishing.  A rule set
// decomposes into groups uniquely (Groups), and a group's canonical byte
// encoding (Canonical) changes exactly when any of its rules change, so
// comparing canonical bytes across two rule sets yields the minimal set of
// groups a distributed publisher must re-ship.
type RuleGroup struct {
	// Key is the antecedent's canonical key (itemset.Key): 4 big-endian
	// bytes per item, so keys sort like Itemset.Compare.
	Key string
	// Ant is the decoded antecedent.
	Ant itemset.Itemset
	// Rules holds the group's rules, sorted by rules.RankLess.
	Rules []rules.Rule
}

// Groups decomposes a rule set into antecedent groups, each rank-sorted,
// ordered by antecedent key.  The decomposition is deterministic for a given
// rule set whatever the input order — the property delta computation relies
// on.
func Groups(rs []rules.Rule) []RuleGroup {
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
	out := make([]RuleGroup, 0, len(keys))
	for _, k := range keys {
		grp := byAnt[k]
		sort.Slice(grp, func(i, j int) bool { return rules.RankLess(grp[i], grp[j]) })
		out = append(out, RuleGroup{Key: k, Ant: itemset.KeyToItemset(k), Rules: grp})
	}
	return out
}

// Canonical returns the group's canonical byte encoding: the antecedent key,
// then each rule's consequent key, count and quality measures (IEEE-754
// bits), every variable-length field length-prefixed.  Two groups encode to
// the same bytes iff they hold the same antecedent and the same rules in the
// same rank order, so canonical bytes are the change detector for delta
// publishing — and their length is the natural wire-cost measure of
// shipping the group.
func (g RuleGroup) Canonical() []byte {
	n := 8 + len(g.Key)
	for _, r := range g.Rules {
		n += 8 + 4*len(r.Consequent) + 8 + 4*8
	}
	dst := make([]byte, 0, n)
	dst = binary.AppendUvarint(dst, uint64(len(g.Key)))
	dst = append(dst, g.Key...)
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
