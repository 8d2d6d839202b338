package core

import (
	"fmt"
	"hash/fnv"

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
// (hpaTable) whose kernel, hpaExchange, is kept as first written: it is the
// baseline, it has no counting structure for an engine to replace, and it
// reads the rank's resident shards itself — charging the read after the
// enumeration, so refitting it to the transaction stream would move every
// send's timestamp.  It addresses its peers through the column communicator
// like every other kernel, so a degraded run is a smaller hash ring.

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
	return hpaCount{cands: cands}, nil
}

type hpaCount struct {
	cands itemset.Flat
}

func (c hpaCount) count(r *run, p *cluster.Proc, col *cluster.Comm, _ string, _ *bitmap.Bitmap, pl *passLocal) ([]int64, error) {
	counts := make([]int64, c.cands.Len())
	table := make(map[string]*int64, len(counts))
	for i := range counts {
		table[c.cands.At(i).Key()] = &counts[i]
	}
	pl.bytesMoved += r.hpaExchange(p, col, c.cands.K, table)
	return counts, nil
}

// hpaExchange enumerates the potential size-k candidates of each transaction
// in the shards the rank owns, routes them to their owners on cm in pages,
// and counts the ones that arrive here.  Returns the bytes this processor
// sent.
func (r *run) hpaExchange(p *cluster.Proc, cm *cluster.Comm, k int, counts map[string]*int64) int64 {
	procs, me := cm.Size(), cm.Rank(p)
	tag := fmt.Sprintf("k%d/hpa", k)

	// Outgoing buffers, one page per destination.
	outbuf := make([][]itemset.Itemset, procs)
	var sent int64
	subsetBytes := 4 * k
	pageCap := PageBytes / subsetBytes
	if pageCap < 1 {
		pageCap = 1
	}
	flush := func(dst int) {
		if len(outbuf[dst]) == 0 {
			return
		}
		b := 16 + subsetBytes*len(outbuf[dst])
		dist := cluster.RingDistance(me, dst, procs)
		p.SendContended(cm.Member(dst), tag, outbuf[dst], b, float64(dist))
		sent += int64(b)
		outbuf[dst] = nil
	}
	count := func(s itemset.Itemset) {
		if c, ok := counts[s.Key()]; ok {
			*c++
		}
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
				outbuf[owner] = append(outbuf[owner], s.Clone())
				if len(outbuf[owner]) >= pageCap {
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
			page := msg.Payload.([]itemset.Itemset)
			for _, s := range page {
				count(s)
			}
			p.Compute(float64(len(page))*m.TCheck, "subset")
		}
	}
	return sent
}

// hpaOwner hashes a candidate itemset to its owning processor.
func hpaOwner(s itemset.Itemset, procs int) int {
	h := fnv.New32a()
	var buf [4]byte
	for _, it := range s {
		buf[0] = byte(it)
		buf[1] = byte(it >> 8)
		buf[2] = byte(it >> 16)
		buf[3] = byte(it >> 24)
		h.Write(buf[:])
	}
	return int(h.Sum32() % uint32(procs))
}

// forEachSubset calls fn with every size-k subset of the sorted itemset s.
// The yielded slice is reused between calls; clone to retain.
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
