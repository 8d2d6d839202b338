package core

import (
	"fmt"

	"parapriori/internal/bitmap"
	"parapriori/internal/cluster"
	"parapriori/internal/itemset"
	"parapriori/internal/partition"
)

// Hash Partitioned Apriori (HPA, Shintani & Kitsuregawa [11]) is the
// third-party algorithm Section III-E compares IDD against.  Candidates are
// partitioned by *hashing the whole itemset*: in pass k every processor
// enumerates, for each local transaction, all C = (|t| choose k) potential
// size-k candidates, hashes each one to its owning processor, and ships it
// there; owners look the arrivals up in a local table and count matches.
// No reduction is needed — counts are global where they land — but the
// communication volume is O(N·C), which is why the paper predicts HPA loses
// to IDD for k > 2 (and our emulation reproduces exactly that: see the
// "others" experiment).
//
// On the pass skeleton HPA is a placement (placeHashed) and a count step
// (hpaTable) whose kernel, hpaExchange, has no counting structure for an
// engine to replace: an owner counts each arrival at its position in the
// owned candidates' Flat (an itemset.FlatIndex finds it), and subsets travel
// in pages that are Flats of stride k.  Every charge comes from counts, so
// the host's layout moves none.  The kernel reads the rank's resident shards
// itself, charging the read after the enumeration: refitting it to the
// transaction stream would move every send's timestamp.  It addresses its
// peers through the column communicator like every other kernel, so a
// degraded run is a smaller hash ring.

// placeHashed keeps the candidates hashing to this row.
func placeHashed(r *run, _ *cluster.Proc, c candSet, g, row int) share {
	cands := r.candidates(c.k, c.prev)
	mine := itemset.Flat{K: cands.K}
	owners := make([]int, g)
	for i := 0; i < cands.Len(); i++ {
		c := cands.At(i)
		owner := hpaOwner(c, g)
		owners[owner]++
		if owner == row {
			mine.Items = append(mine.Items, c...)
		}
	}
	return share{cands: mine, imbalance: partition.Imbalance(owners)}
}

// hpaTable is HPA's build step: a lookup table over the owned candidates,
// whose construction stands in for tree construction.
func hpaTable(_ *run, p *cluster.Proc, cands itemset.Flat, _ *indexCarry) (counter, error) {
	chargeBuild(p, int64(cands.Len()))
	return hpaCount(cands), nil
}

// hpaCount is the owned candidates, counted by hpaExchange.
type hpaCount itemset.Flat

func (c hpaCount) count(r *run, p *cluster.Proc, col *cluster.Comm, _ string, _ *bitmap.Bitmap, pl *passLocal) ([]int64, error) {
	counts, sent := r.hpaExchange(p, col, itemset.Flat(c))
	pl.bytesMoved += sent
	return counts, nil
}

// hpaExchange enumerates the potential size-k candidates of each transaction
// in the shards the rank owns, routes them to their owners on cm in pages,
// and counts the ones that arrive here, at their position in owned.  Returns
// the counts and the bytes this processor sent.
func (r *run) hpaExchange(p *cluster.Proc, cm *cluster.Comm, owned itemset.Flat) ([]int64, int64) {
	procs, me, k := cm.Size(), cm.Rank(p), owned.K
	tag := fmt.Sprintf("k%d/hpa", k)
	index, counts := owned.Index(), make([]int64, owned.Len())
	count := func(s itemset.Itemset) {
		if at := index.Find(s); at >= 0 {
			counts[at]++
		}
	}

	// Outgoing buffers, one page per destination, sent as a Flat of stride
	// k.  A sent page belongs to its receiver, so the next one starts afresh.
	outbuf := make([][]itemset.Item, procs)
	var sent int64
	pageCap := max(PageBytes/(4*k), 1) // subsets a page
	flush := func(dst int) {
		if len(outbuf[dst]) == 0 {
			return
		}
		b := 16 + 4*len(outbuf[dst]) // 4 bytes an item
		dist := cluster.RingDistance(me, dst, procs)
		p.SendContended(cm.Member(dst), tag, itemset.Flat{K: k, Items: outbuf[dst]}, b, float64(dist))
		sent += int64(b)
		outbuf[dst] = nil
	}

	var enumerated, read int64
	for _, si := range r.ownedShards[p.ID()] {
		shard := r.shards[si]
		for _, t := range shard.Transactions {
			forEachSubset(t.Items, k, func(s itemset.Itemset) {
				enumerated++
				owner := hpaOwner(s, procs)
				if owner == me {
					count(s)
					return
				}
				if outbuf[owner] == nil {
					outbuf[owner] = make([]itemset.Item, 0, pageCap*k)
				}
				outbuf[owner] = append(outbuf[owner], s...)
				if len(outbuf[owner]) == pageCap*k {
					flush(owner)
				}
			})
		}
		read += int64(shard.Bytes())
	}
	p.ReadIO(read, "io")
	// Enumeration+hashing per potential candidate, and a table probe for
	// the locally-owned ones.
	m := p.Machine()
	p.Compute(float64(enumerated)*(m.TTravers+float64(k)*m.TItem), "subset")

	// Flush remainders and close every stream with an empty sentinel page.
	for dst := 0; dst < procs; dst++ {
		if dst == me {
			continue
		}
		flush(dst)
		p.Send(cm.Member(dst), tag+"/done", nil, 16)
	}
	// Drain every incoming stream to its sentinel.
	for src := 0; src < procs; src++ {
		if src == me {
			continue
		}
		for {
			msg := p.RecvAny(cm.Member(src))
			if msg.Tag == tag+"/done" {
				break
			}
			if msg.Tag != tag {
				panic(fmt.Sprintf("core: hpa proc %d: unexpected tag %q from %d", me, msg.Tag, src))
			}
			page := msg.Payload.(itemset.Flat)
			for i := 0; i < page.Len(); i++ {
				count(page.At(i))
			}
			p.Compute(float64(page.Len())*m.TCheck, "subset")
		}
	}
	return counts, sent
}

// hpaOwner hashes a candidate itemset to its owning processor: 32-bit
// FNV-1a over each item's four little-endian bytes, modulo procs.
func hpaOwner(s itemset.Itemset, procs int) int {
	h := uint32(2166136261)
	for _, it := range s {
		for shift := 0; shift < 32; shift += 8 {
			h = (h ^ uint32(byte(uint32(it)>>shift))) * 16777619
		}
	}
	return int(h % uint32(procs))
}

// forEachSubset calls fn with every size-k subset of the sorted itemset s.
// The yielded slice is reused between calls; copy it to retain it.
func forEachSubset(s itemset.Itemset, k int, fn func(itemset.Itemset)) {
	if k <= 0 || k > len(s) {
		return
	}
	idx := make([]int, k)
	buf := make(itemset.Itemset, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		for i, j := range idx {
			buf[i] = s[j]
		}
		fn(buf)
		// Advance the combination odometer.
		i := k - 1
		for i >= 0 && idx[i] == len(s)-k+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}
