package core

import (
	"fmt"
	"hash/fnv"

	"parapriori/internal/apriori"
	"parapriori/internal/cluster"
	"parapriori/internal/itemset"
	"parapriori/internal/obsv"
	"parapriori/internal/partition"
)

// hpaBody is the SPMD program of Hash Partitioned Apriori (HPA, Shintani &
// Kitsuregawa [11]), the third-party algorithm Section III-E compares IDD
// against.  Candidates are partitioned by *hashing the whole itemset*: in
// pass k every processor enumerates, for each local transaction, all
// C = (|t| choose k) potential size-k candidates, hashes each one to its
// owning processor, and ships it there; owners look the arrivals up in a
// local table and count matches.  No reduction is needed — counts are
// global where they land — but the communication volume is O(N·C), which
// is why the paper predicts HPA loses to IDD for k > 2 (and our emulation
// reproduces exactly that: see the "others" experiment).
//
// The potential candidates are batched into pages per destination; the
// exchange is an unstructured all-to-all, charged with ring-distance
// congestion like DD's scatter.
func (r *run) hpaBody(p *cluster.Proc) error {
	tr := &r.perProc[p.ID()]
	prev := r.firstPass(p, tr)
	tr.levels = append(tr.levels, prev)
	r.passSpan(p, tr)

	shard := r.shards[p.ID()]
	procs := r.prm.P
	for k := 2; len(prev) > 0; k++ {
		if r.prm.Apriori.MaxPasses > 0 && k > r.prm.Apriori.MaxPasses {
			break
		}
		clockStart := p.Clock()

		cands := r.candidates(k, prev)
		chargeGen(p, len(cands))
		r.sec(p, "candidate gen", clockStart, obsv.Int("k", int64(k)))
		if len(cands) == 0 {
			break
		}

		// Keep the candidates hashing to this processor, in a lookup table.
		var myCands []itemset.Itemset
		counts := make(map[string]*int64)
		owners := make([]int, procs)
		for _, c := range cands {
			owner := hpaOwner(c, procs)
			owners[owner]++
			if owner == p.ID() {
				myCands = append(myCands, c)
				var zero int64
				counts[c.Key()] = &zero
			}
		}
		candImbalance := partition.Imbalance(owners)
		// Building the lookup table stands in for tree construction.
		buildStart := p.Clock()
		chargeBuild(p, int64(len(myCands)))
		r.sec(p, "build", buildStart, obsv.Int("k", int64(k)))

		computeBefore := p.Stats().ComputeTime
		countStart := p.Clock()
		bytesMoved := r.hpaExchange(p, k, shard, counts)
		countTime := p.Stats().ComputeTime - computeBefore
		r.sec(p, "count", countStart, obsv.Int("k", int64(k)))

		exStart := p.Clock()
		var frequentLocal []apriori.Frequent
		for _, c := range myCands {
			if n := *counts[c.Key()]; n >= r.minCount {
				frequentLocal = append(frequentLocal, apriori.Frequent{Items: c, Count: n})
			}
		}
		level := exchangeFrequent(p, r.world, fmt.Sprintf("k%d/freq", k), frequentLocal)
		r.sec(p, "exchange", exStart, obsv.Int("k", int64(k)))

		tr.passes = append(tr.passes, passLocal{
			k:             k,
			candidates:    len(cands),
			localCands:    len(myCands),
			frequent:      len(level),
			gridRows:      procs,
			gridCols:      1,
			treeParts:     1,
			bytesMoved:    bytesMoved,
			countTime:     countTime,
			clockStart:    clockStart,
			clockEnd:      p.Clock(),
			candImbalance: candImbalance,
		})
		tr.levels = append(tr.levels, level)
		r.passSpan(p, tr)
		prev = level
	}
	return nil
}

// hpaExchange enumerates each local transaction's potential size-k
// candidates, routes them to their owners in pages, and counts the ones
// that arrive here.  Returns the bytes this processor sent.
func (r *run) hpaExchange(p *cluster.Proc, k int, shard *itemset.Dataset, counts map[string]*int64) int64 {
	procs, me := r.prm.P, p.ID()
	tag := fmt.Sprintf("k%d/hpa", k)

	// Outgoing buffers, one page per destination.
	outbuf := make([][]itemset.Itemset, procs)
	var sent int64
	subsetBytes := 4 * k
	pageCap := r.prm.PageBytes / subsetBytes
	if pageCap < 1 {
		pageCap = 1
	}
	flush := func(dst int) {
		if len(outbuf[dst]) == 0 {
			return
		}
		b := 16 + subsetBytes*len(outbuf[dst])
		dist := cluster.RingDistance(me, dst, procs)
		p.SendContended(dst, tag, outbuf[dst], b, float64(dist))
		sent += int64(b)
		outbuf[dst] = nil
	}
	count := func(s itemset.Itemset) {
		if c, ok := counts[s.Key()]; ok {
			*c++
		}
	}

	var enumerated int64
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
	p.ReadIO(int64(shard.Bytes()), "io")
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
		p.Send(dst, tag+"/done", nil, 16)
	}
	// Drain every incoming stream to its sentinel.
	for src := 0; src < procs; src++ {
		if src == me {
			continue
		}
		for {
			msg := p.RecvAny(src)
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
