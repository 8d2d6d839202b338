package countengine

import (
	"fmt"
	"sort"

	"parapriori/internal/bitmap"
	"parapriori/internal/itemset"
)

// The "trie" backend stores the candidates in a flat prefix-compressed trie
// over a *dense* item alphabet: the distinct items appearing in the
// candidate set are remapped to 0..U-1 (order-preserving, so remapped
// transactions stay sorted), and each trie level is a pair of contiguous
// int32 arrays — node item and child range — instead of allocated nodes
// with pointers.  Counting walks the trie and the transaction suffix with a
// merge join (galloping over the node side), so unlike the hash tree a
// reached leaf *is* a contained candidate: there are no failed containment
// checks, which is where the hash tree spends most of its t_check budget
// (arXiv:1511.07017's central observation).  The root level is
// direct-indexed by dense item, mirroring the tree's O(1) root hash.

type trieBuilder struct {
	cfg Config
}

func (b *trieBuilder) Name() string { return "trie" }

// trieLevel holds the nodes of one trie depth in two contiguous arrays,
// grouped by parent and sorted by item within each group.
type trieLevel struct {
	// items is the dense item of each node.
	items []int32
	// child holds, for internal levels, the start of each node's child
	// range in the next level (len(items)+1 entries, ranges tiling the
	// level); for the leaf level, the original candidate index of each
	// node (len(items) entries).
	child []int32
}

type trieEngine struct {
	k      int
	levels []trieLevel
	// remap maps original item → dense id (-1 when the item appears in no
	// candidate); orig inverts it.
	remap []int32
	orig  []itemset.Item
	// rootOf maps dense id → level-0 node index (-1 when the item starts
	// no candidate).
	rootOf []int32
	counts []int64
	stats  Stats
	// buf is the reusable dense-remapped transaction buffer.
	buf []int32
}

func (b *trieBuilder) NewPass(k int, cands []itemset.Itemset) (Engine, error) {
	return newPass(b, k, cands)
}

func (b *trieBuilder) NewPassFlat(cands itemset.Flat) (Engine, error) {
	k, m := cands.K, cands.Len()
	span, err := cands.Check()
	if err != nil {
		return nil, fmt.Errorf("countengine: trie: %w", err)
	}
	span = max(span, b.cfg.NumItems)
	e := &trieEngine{
		k:      k,
		levels: make([]trieLevel, k),
		remap:  make([]int32, span),
		counts: make([]int64, m),
	}
	for i := range e.remap {
		e.remap[i] = -1
	}
	for _, it := range cands.Items {
		e.remap[it] = 0
	}
	// Assign dense ids in ascending item order: the remap is monotone, so
	// remapped transactions keep their sort order.
	for it, mark := range e.remap {
		if mark == 0 {
			e.remap[it] = int32(len(e.orig))
			e.orig = append(e.orig, itemset.Item(it))
		}
	}

	// Sort a permutation of the candidate indices lexicographically; the
	// trie is built over the sorted view while leaves remember the original
	// index, so Counts() comes out in the caller's order (the order CD's
	// reductions depend on).
	perm := make([]int32, m)
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.Slice(perm, func(i, j int) bool {
		return cands.At(int(perm[i])).Compare(cands.At(int(perm[j]))) < 0
	})

	if m > 0 {
		e.build(cands.Items, perm, 0, 0, m)
		for level := 0; level < k-1; level++ {
			next := int32(len(e.levels[level+1].items))
			e.levels[level].child = append(e.levels[level].child, next)
		}
	}
	e.rootOf = make([]int32, len(e.orig))
	for i := range e.rootOf {
		e.rootOf[i] = -1
	}
	for idx, di := range e.levels[0].items {
		if e.rootOf[di] < 0 {
			e.rootOf[di] = int32(idx)
		}
	}
	return e, nil
}

// build materializes the trie nodes for the sorted candidate range
// perm[lo:hi], all of which share their first `level` items, in DFS order —
// which is what lays each node's children out contiguously in the next
// level's arrays.  items is the candidates' flat item array, stride k.
func (e *trieEngine) build(items []itemset.Item, perm []int32, level, lo, hi int) {
	lv := &e.levels[level]
	at := func(j int) itemset.Item { return items[int(perm[j])*e.k+level] }
	if level == e.k-1 {
		// One leaf per candidate: duplicates (which apriori_gen never
		// emits, but the seam does not forbid) each keep their own count
		// slot.
		for j := lo; j < hi; j++ {
			e.stats.BuildOps++
			lv.items = append(lv.items, e.remap[at(j)])
			lv.child = append(lv.child, perm[j])
		}
		return
	}
	for s := lo; s < hi; {
		v := at(s)
		t := s
		for t < hi && at(t) == v {
			t++
		}
		e.stats.BuildOps++
		lv.items = append(lv.items, e.remap[v])
		lv.child = append(lv.child, int32(len(e.levels[level+1].items)))
		e.build(items, perm, level+1, s, t)
		s = t
	}
}

func (e *trieEngine) Len() int { return len(e.counts) }

//checkinv:hotpath
func (e *trieEngine) CountBlock(txns []itemset.Transaction, rootFilter *bitmap.Bitmap) {
	for i := range txns {
		e.countTxn(txns[i].Items, rootFilter)
	}
}

//checkinv:hotpath
func (e *trieEngine) countTxn(txn itemset.Itemset, rootFilter *bitmap.Bitmap) {
	e.stats.Transactions++
	e.stats.ItemTouches += int64(len(txn))
	// Remap to the dense candidate alphabet, dropping items no candidate
	// contains; the remap is monotone so buf stays sorted.
	buf := e.buf[:0]
	for _, it := range txn {
		if int(it) < len(e.remap) {
			if di := e.remap[it]; di >= 0 {
				buf = append(buf, di)
			}
		}
	}
	e.buf = buf
	if len(buf) < e.k {
		return
	}
	// The root is direct-indexed: each remaining transaction item either
	// starts candidates (one level-0 node) or starts none.
	lv0 := &e.levels[0]
	last := len(buf) - e.k
	for i := 0; i <= last; i++ {
		di := buf[i]
		node := e.rootOf[di]
		if node < 0 {
			continue
		}
		e.stats.ArraySteps++
		if rootFilter != nil && !rootFilter.Test(int(e.orig[di])) {
			continue
		}
		if e.k == 1 {
			e.stats.CandChecks++
			e.stats.CandVisits++
			e.counts[lv0.child[node]]++
			continue
		}
		e.walk(1, lv0.child[node], lv0.child[node+1], i+1)
	}
}

// walk merge-joins the sibling nodes levels[level].items[nlo:nhi] against
// the transaction suffix buf[tpos:], recursing on matches.  The node side
// gallops (binary search) across gaps; the transaction side advances
// linearly, since the suffix is short.
//
//checkinv:hotpath
func (e *trieEngine) walk(level int, nlo, nhi int32, tpos int) {
	lv := &e.levels[level]
	buf := e.buf
	leaf := level == e.k-1
	need := e.k - level
	a, b := nlo, tpos
	for a < nhi && b+need <= len(buf) {
		e.stats.ArraySteps++
		ni := lv.items[a]
		tv := buf[b]
		switch {
		case ni < tv:
			a = e.lowerBound(lv.items, a+1, nhi, tv)
		case ni > tv:
			b++
		default:
			if leaf {
				// Count every leaf carrying this item (one, barring
				// duplicate candidates).
				for a < nhi && lv.items[a] == tv {
					e.stats.CandChecks++
					e.stats.CandVisits++
					e.counts[lv.child[a]]++
					a++
				}
			} else {
				e.walk(level+1, lv.child[a], lv.child[a+1], b+1)
				a++
			}
			b++
		}
	}
}

// lowerBound returns the first index in items[lo:hi] holding a value >= v,
// charging one ArrayStep per probe.
//
//checkinv:hotpath
func (e *trieEngine) lowerBound(items []int32, lo, hi, v int32) int32 {
	for lo < hi {
		e.stats.ArraySteps++
		mid := (lo + hi) / 2
		if items[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (e *trieEngine) Counts() []int64 { return e.counts }

func (e *trieEngine) Stats() Stats { return e.stats }

func (e *trieEngine) MemoryBytes() int {
	bytes := len(e.counts)*8 + len(e.remap)*4 + len(e.orig)*4 + len(e.rootOf)*4
	for i := range e.levels {
		bytes += len(e.levels[i].items)*4 + len(e.levels[i].child)*4
	}
	return bytes
}
