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

// Assignment is the result of packing candidate groups onto P processors.
type Assignment struct {
	// GroupsOf[i] holds the groups assigned to processor i, in packing
	// order.
	GroupsOf [][]Group
	// Counts[i] is the number of candidates processor i owns.
	Counts []int
	// cands is the sorted candidates the groups index into.
	cands itemset.Flat
}

// Share returns the candidates owned by processor i: its groups' runs
// concatenated in packing order, each still in lexicographic order.  Every
// call copies the groups' items into a new array, k items per candidate (no
// array when i owns nothing), so the processors of a grid can each build
// their own share concurrently.
//
//checkinv:hotpath
func (a *Assignment) Share(i int) itemset.Flat {
	k := a.cands.K
	out := itemset.Flat{K: k}
	if a.Counts[i] == 0 {
		return out
	}
	out.Items = make([]itemset.Item, 0, a.Counts[i]*k)
	for _, g := range a.GroupsOf[i] {
		out.Items = append(out.Items, a.cands.Items[g.Start*k:g.End*k]...)
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
	if splitThreshold <= 0 && p > 0 {
		splitThreshold = (cands.Len() + p - 1) / p
	}
	groups := firstItemGroups(cands, splitThreshold)
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
		cands:    cands,
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
