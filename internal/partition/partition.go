// Package partition assigns candidate itemsets to processors.
//
// DD partitions candidates round-robin, which balances counts but scatters
// first items across every processor, making root-level filtering
// impossible.  IDD instead groups candidates by their *first item* and packs
// the groups into P buckets with a bin-packing heuristic so each processor
// owns all candidates beginning with its items (Section III-C).  When too
// many candidates share one first item — the skew problem the paper notes
// gets worse as P grows — the group is split further by the *second* item.
package partition

import (
	"sort"

	"parapriori/internal/itemset"
)

// Group is a run of candidates sharing a first item (or a first-and-second
// item pair when the group was split for skew).  Start and End index into
// the lexicographically sorted candidates the group was built from, so
// groups never copy candidates.
type Group struct {
	First     itemset.Item
	Second    itemset.Item
	HasSecond bool
	Start     int
	End       int
}

// Size returns the number of candidates in the group.
func (g Group) Size() int { return g.End - g.Start }

// firstItemGroups partitions the sorted candidates into first-item groups,
// splitting any group larger than splitThreshold by second item.  A
// splitThreshold <= 0 disables splitting, and so do candidates of one item.
// Candidates must be sorted lexicographically (apriori.GenFlat output
// order).
func firstItemGroups(cands itemset.Flat, splitThreshold int) []Group {
	var out []Group
	k, items, m := cands.K, cands.Items, cands.Len()
	for start := 0; start < m; {
		end := start
		first := items[start*k]
		for end < m && items[end*k] == first {
			end++
		}
		if splitThreshold > 0 && end-start > splitThreshold && k >= 2 {
			// Split the oversized run by second item; within the run the
			// candidates are still sorted, so sub-runs are contiguous too.
			for s := start; s < end; {
				e := s
				second := items[s*k+1]
				for e < end && items[e*k+1] == second {
					e++
				}
				out = append(out, Group{First: first, Second: second, HasSecond: true, Start: s, End: e})
				s = e
			}
		} else {
			out = append(out, Group{First: first, Start: start, End: end})
		}
		start = end
	}
	return out
}

// pairGroups is firstItemGroups over C_2 = every pair of the sorted items,
// without C_2: row i, the pairs that start with items[i], holds n-1-i of
// them, and a row longer than splitThreshold splits into one group per pair.
// Start and End index into the C_2 apriori.GenFlat would generate.
func pairGroups(items []itemset.Item, splitThreshold int) []Group {
	var out []Group
	n, start := len(items), 0
	for i, a := range items[:max(n-1, 0)] {
		size := n - 1 - i
		if splitThreshold > 0 && size > splitThreshold {
			for j, b := range items[i+1:] {
				out = append(out, Group{First: a, Second: b, HasSecond: true, Start: start + j, End: start + j + 1})
			}
		} else {
			out = append(out, Group{First: a, Start: start, End: start + size})
		}
		start += size
	}
	return out
}

// Assignment is the result of packing candidate groups onto P processors.
type Assignment struct {
	// GroupsOf[i] holds the groups assigned to processor i, in packing
	// order.
	GroupsOf [][]Group
	// Counts[i] is the number of candidates processor i owns.
	Counts []int
	// cands is the sorted candidates the groups index into (BinPackFlat;
	// BinPackPairs keeps only its K, 2), and pairs the sorted items whose
	// pairs they are (BinPackPairs).
	cands itemset.Flat
	pairs []itemset.Item
}

// Share returns the candidates owned by processor i: its groups' runs
// concatenated in packing order, each still in lexicographic order.  Every
// call writes the groups' items into a new array, k items per candidate (no
// array when i owns nothing), so the processors of a grid can each build
// their own share concurrently.  A BinPackFlat assignment copies them out of
// its candidates; a BinPackPairs one, which has none, writes each pair from
// its items (a processor that owns a pair implies at least two of them).
//
//checkinv:hotpath
func (a *Assignment) Share(i int) itemset.Flat {
	k := a.cands.K
	out := itemset.Flat{K: k}
	if a.Counts[i] == 0 {
		return out
	}
	if a.pairs != nil {
		out.Items = a.pairShare(i)
		return out
	}
	out.Items = make([]itemset.Item, 0, a.Counts[i]*k)
	for _, g := range a.GroupsOf[i] {
		out.Items = append(out.Items, a.cands.Items[g.Start*k:g.End*k]...)
	}
	return out
}

// pairShare is the items of Share of a BinPackPairs assignment.  A whole
// row of Size s pairs its first item with the last s items; a split one
// holds its one pair.
//
//checkinv:hotpath
func (a *Assignment) pairShare(i int) []itemset.Item {
	out := make([]itemset.Item, 2*a.Counts[i])
	x := 0
	for _, g := range a.GroupsOf[i] {
		if g.HasSecond {
			out[x], out[x+1] = g.First, g.Second
			x += 2
			continue
		}
		for _, b := range a.pairs[len(a.pairs)-g.Size():] {
			out[x], out[x+1] = g.First, b
			x += 2
		}
	}
	return out
}

// Imbalance returns (max - mean) / mean over the per-processor candidate
// counts — the "load imbalance in terms of the number of candidate sets"
// the paper reports (1.3 % on 4 processors, 2.3 % on 8).  It returns 0 for
// an empty assignment.
func (a *Assignment) Imbalance() float64 {
	return Imbalance(a.Counts)
}

// Imbalance returns (max - mean) / mean for a slice of non-negative loads:
// per-processor candidate counts, or per-processor times.  It sums in T and
// converts once, and returns 0 for no loads or a zero total.
func Imbalance[T int | float64](loads []T) float64 {
	if len(loads) == 0 {
		return 0
	}
	var total, max T
	for _, l := range loads {
		total += l
		if l > max {
			max = l
		}
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(len(loads))
	return (float64(max) - mean) / mean
}

// BinPack is BinPackFlat over sorted candidates held as headers, all of one
// size.
func BinPack(cands []itemset.Itemset, p, splitThreshold int) *Assignment {
	k := 0
	if len(cands) > 0 {
		k = len(cands[0])
	}
	flat, err := itemset.FlatOf(k, cands)
	if err != nil {
		panic("partition: " + err.Error())
	}
	return BinPackFlat(flat, p, splitThreshold)
}

// BinPackFlat distributes the sorted candidates over p processors using the
// longest-processing-time heuristic over first-item groups: groups are
// sorted by decreasing size and each is placed on the currently least
// loaded processor.  splitThreshold bounds the size of a single group
// before it is split by second item; pass 0 to use the natural threshold
// ceil(cands.Len()/p), the point past which one group alone would overflow
// its processor.  The assignment keeps cands, which Share reads.
func BinPackFlat(cands itemset.Flat, p, splitThreshold int) *Assignment {
	if p < 1 {
		p = 1
	}
	if splitThreshold <= 0 {
		splitThreshold = (cands.Len() + p - 1) / p
	}
	asg := pack(firstItemGroups(cands, splitThreshold), p)
	asg.cands = cands
	return asg
}

// PairCount is |C_2| over n frequent items: C_2 is every pair of them, so
// n(n-1)/2, and the pairs that start with the i-th item number n-1-i
// (pairGroups).
func PairCount(n int) int {
	return n * (n - 1) / 2
}

// BinPackPairs is BinPackFlat(C_2, p, 0) for C_2 = every pair of the sorted,
// distinct items — apriori.GenFlat over them as 1-itemsets — computed from
// the items alone: row i's n-1-i pairs need no C_2 to be counted, grouped
// and packed.  The groups, counts and shares are BinPackFlat's; Share writes
// a processor's pairs from the items.
func BinPackPairs(items []itemset.Item, p int) *Assignment {
	if p < 1 {
		p = 1
	}
	m := PairCount(len(items))
	asg := pack(pairGroups(items, (m+p-1)/p), p)
	asg.cands = itemset.Flat{K: 2}
	asg.pairs = items
	return asg
}

// pack places the groups on p processors by LPT.
func pack(groups []Group, p int) *Assignment {
	order := make([]int, len(groups))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ga, gb := groups[order[a]], groups[order[b]]
		if ga.Size() != gb.Size() {
			return ga.Size() > gb.Size()
		}
		// Deterministic tie-break keeps runs reproducible.
		if ga.First != gb.First {
			return ga.First < gb.First
		}
		return ga.Second < gb.Second
	})

	asg := &Assignment{
		GroupsOf: make([][]Group, p),
		Counts:   make([]int, p),
	}
	// Place the groups first, so each processor's group list can be
	// allocated at its final size.
	owner := make([]int, len(groups))
	numGroups := make([]int, p)
	for _, gi := range order {
		// Least-loaded processor; linear scan is fine for P <= a few hundred.
		best := 0
		for i := 1; i < p; i++ {
			if asg.Counts[i] < asg.Counts[best] {
				best = i
			}
		}
		owner[gi] = best
		numGroups[best]++
		asg.Counts[best] += groups[gi].Size()
	}
	for i, n := range numGroups {
		if n > 0 {
			asg.GroupsOf[i] = make([]Group, 0, n)
		}
	}
	for _, gi := range order {
		best := owner[gi]
		asg.GroupsOf[best] = append(asg.GroupsOf[best], groups[gi])
	}
	return asg
}

// RoundRobin distributes candidates over p processors the way DD does:
// candidate i goes to processor i mod p.
//
//checkinv:hotpath
func RoundRobin(cands itemset.Flat, p int) []itemset.Flat {
	if p < 1 {
		p = 1
	}
	k, m := cands.K, cands.Len()
	out := make([]itemset.Flat, p)
	for j := range out {
		out[j] = itemset.Flat{K: k, Items: make([]itemset.Item, 0, (m-j+p-1)/p*k)}
	}
	for i := 0; i < m; i++ {
		out[i%p].Items = append(out[i%p].Items, cands.At(i)...)
	}
	return out
}
