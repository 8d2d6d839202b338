package core

import (
	"fmt"
	"io"

	"parapriori/internal/apriori"
	"parapriori/internal/cluster"
	"parapriori/internal/itemset"
	"parapriori/internal/obsv"
	"parapriori/internal/txstore"
)

// ExecBackend selects how the SPMD bodies get at the transactions.
type ExecBackend string

const (
	// BackendInMem is the classic emulation: the whole dataset is resident,
	// split into per-rank shards, and I/O is charged through the cost model
	// from the shards' modeled byte sizes.
	BackendInMem ExecBackend = "inmem"
	// BackendOOC is the out-of-core backend: each rank streams its own
	// partition files of a spill-to-disk store (Params.Store) one block at
	// a time, charging real on-disk bytes per block, and only candidate
	// counts cross the network — the paper's disk-resident CD as a
	// map/reduce over partition files.  Grid formulations (CD, IDD, HD)
	// only.
	BackendOOC ExecBackend = "ooc"
)

// ParseBackend converts a user-facing name into an ExecBackend.
func ParseBackend(s string) (ExecBackend, error) {
	switch ExecBackend(s) {
	case "":
		return BackendInMem, nil
	case BackendInMem, BackendOOC:
		return ExecBackend(s), nil
	}
	return "", fmt.Errorf("core: unknown backend %q (want inmem or ooc)", s)
}

// ooc reports whether the run executes out of core.
func (r *run) ooc() bool { return r.store != nil }

// itemCount is the item vocabulary size |I|, whichever backend holds the
// transactions.
func (r *run) itemCount() int {
	if r.data != nil {
		return r.data.NumItems
	}
	return r.numItems
}

// txnCount is the database size N, whichever backend holds the
// transactions.
func (r *run) txnCount() int {
	if r.data != nil {
		return r.data.Len()
	}
	return r.nTxns
}

// ownedPartsOf maps a rank to the store partitions it streams: the
// contiguous range [v*M/np, (v+1)*M/np) over the rank's virtual position,
// the partition-file analogue of Dataset.Split.
func (r *run) ownedPartsOf(rank int) []int {
	v := rank
	if r.vrank != nil {
		v = r.vrank[rank]
	}
	if v < 0 {
		return nil
	}
	m := r.store.Partitions()
	np := r.np()
	lo, hi := v*m/np, (v+1)*m/np
	parts := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		parts = append(parts, i)
	}
	return parts
}

// oocReadStats is one rank's record of its out-of-core read-path work for
// one pass: what it read, what it survived, and how the virtual clock split
// between decoding bytes and waiting on them.  Everything here is charged on
// the virtual clock, so a seeded run reports bit-identical numbers.
type oocReadStats struct {
	parts      int   // partition files opened
	blocks     int64 // blocks read and verified
	bytes      int64 // on-disk bytes read (block framing included)
	crcRetries int64 // checksum failures survived by re-reading
	// stalls counts synchronous block reads the rank's clock waited on.
	// Without read-ahead every read is a stall — the number double-buffering
	// (see ROADMAP) would overlap with compute.
	stalls int64
	// decodeSeconds is the virtual compute time spent turning verified
	// payload bytes into transactions, the decode half of the decode/count
	// split.
	decodeSeconds float64
}

// add accumulates o into s.
func (s *oocReadStats) add(o oocReadStats) {
	s.parts += o.parts
	s.blocks += o.blocks
	s.bytes += o.bytes
	s.crcRetries += o.crcRetries
	s.stalls += o.stalls
	s.decodeSeconds += o.decodeSeconds
}

// blockStream walks a rank's owned partitions block by block, charging the
// real on-disk bytes of every block against the rank's virtual I/O clock
// and recording per-block read and decode spans.  With reuse enabled a block
// lives in buffers the store recycles from reader to reader, partition after
// partition and pass after pass, so it is only valid until the next call to
// next or close — callers that hand blocks to other ranks (the ring) disable
// reuse.
type blockStream struct {
	r      *run
	parts  []int
	idx    int
	cur    *txstore.BlockReader
	reuse  bool
	blocks int // total blocks this stream will yield, from the manifest
	stats  oocReadStats
}

// openPartStream prepares the rank's partition stream.  The total block
// count comes from the manifest, so the ring can agree on round counts
// without touching the partition files.
func (r *run) openPartStream(rank int, reuse bool) *blockStream {
	parts := r.ownedPartsOf(rank)
	man := r.store.Manifest()
	total := 0
	for _, pi := range parts {
		total += man.Partitions[pi].Blocks
	}
	return &blockStream{r: r, parts: parts, reuse: reuse, blocks: total}
}

// next returns the next block and its on-disk size, or (nil, 0, nil) when
// the stream is exhausted.  The block's read and decode costs land on p's
// clock before the block is returned.
func (s *blockStream) next(p *cluster.Proc) ([]itemset.Transaction, int64, error) {
	for {
		if s.cur == nil {
			if s.idx >= len(s.parts) {
				return nil, 0, nil
			}
			br, err := s.r.store.OpenPartition(s.parts[s.idx], s.reuse)
			if err != nil {
				return nil, 0, err
			}
			s.cur = br
			s.idx++
		}
		blk, db, err := s.cur.Next()
		if err == io.EOF {
			if cerr := s.finishReader(); cerr != nil {
				return nil, 0, cerr
			}
			continue
		}
		if err != nil {
			return nil, 0, err
		}
		start := p.Clock()
		p.ReadIO(int64(db), "io")
		// Every read is synchronous — the rank's clock waits on the block
		// (no read-ahead; the ROADMAP double-buffering item would hide it).
		s.stats.stalls++
		s.stats.blocks++
		s.stats.bytes += int64(db)
		s.r.sec(p, "read", start, obsv.Int("bytes", int64(db)))
		var items int64
		for _, t := range blk {
			items += int64(len(t.Items))
		}
		decStart := p.Clock()
		chargeScan(p, items, "decode")
		s.stats.decodeSeconds += p.Clock() - decStart
		s.r.sec(p, "decode", decStart, obsv.Int("items", items))
		return blk, int64(db), nil
	}
}

// finishReader folds the current partition reader's stats (the partition
// open and any survived checksum retries) into the stream's and closes it.
func (s *blockStream) finishReader() error {
	if s.cur == nil {
		return nil
	}
	st := s.cur.Stats()
	s.stats.parts += st.Partitions
	s.stats.crcRetries += st.CRCRetries
	err := s.cur.Close()
	s.cur = nil
	return err
}

func (s *blockStream) close() {
	_ = s.finishReader()
}

// firstPassOOC is firstPass over the partition stream: the same
// array-counting scan and global reduction, with I/O charged per block at
// its real on-disk size instead of once at the shard's modeled size.
func (r *run) firstPassOOC(p *cluster.Proc, tr *procTrace) ([]apriori.Frequent, error) {
	start := p.Clock()

	counts := make([]int64, r.itemCount())
	var items int64
	st := r.openPartStream(p.ID(), true)
	defer st.close()
	for {
		blk, _, err := st.next(p)
		if err != nil {
			return nil, err
		}
		if blk == nil {
			break
		}
		for _, t := range blk {
			for _, it := range t.Items {
				counts[it]++
			}
			items += int64(len(t.Items))
		}
	}
	chargeScan(p, items, "scan")
	countStart := p.Clock()
	r.sec(p, "scan", start, obsv.Int("k", 1), obsv.Int("read_bytes", st.stats.bytes))

	global := r.world.AllReduceInt64(p, "f1", counts)
	r.sec(p, "reduce", countStart, obsv.Int("k", 1))

	var f1 []apriori.Frequent
	for it, c := range global {
		if c >= r.minCount {
			f1 = append(f1, apriori.Frequent{Items: itemset.Itemset{itemset.Item(it)}, Count: c})
		}
	}
	tr.passes = append(tr.passes, passLocal{
		k:          1,
		candidates: r.itemCount(),
		frequent:   len(f1),
		gridRows:   1,
		gridCols:   r.np(),
		treeParts:  1,
		countTime:  countStart - start,
		clockStart: start,
		clockEnd:   p.Clock(),
		read:       st.stats,
	})
	return f1, nil
}

// ringCountStream is ringCount fed from the partition stream instead of
// resident pages: the rank's blocks enter the ring (or, on a singleton
// communicator, are counted in place) as they are read, so no rank ever
// materializes its partition.  Ring peers receive blocks they did not read,
// which is why the stream disables buffer reuse whenever the ring has more
// than one member.  Returns the transaction bytes sent and the rank's
// read-path stats for the scan.
func (r *run) ringCountStream(p *cluster.Proc, cm *cluster.Comm, tag string, process func([]itemset.Transaction)) (sent int64, rs oocReadStats, err error) {
	size := cm.Size()
	st := r.openPartStream(p.ID(), size == 1)
	defer func() {
		// close folds the last reader's partition/retry counts, so snapshot
		// the stats only after it.
		st.close()
		rs = st.stats
	}()
	if size == 1 {
		for {
			blk, _, err := st.next(p)
			if err != nil {
				return 0, rs, err
			}
			if blk == nil {
				return 0, rs, nil
			}
			process(blk)
		}
	}
	rank := cm.Rank(p)
	if rank < 0 {
		panic(fmt.Sprintf("core: proc %d not in ring communicator %q", p.ID(), tag))
	}
	// Ranks own different block counts; agree on the number of rounds so
	// the ring stays in step, padding with empty buffers.  The counts come
	// from the manifest, so this costs one collective and no I/O.
	counts := cm.AllGather(p, tag+"/nblocks", st.blocks, 8)
	rounds := 0
	for _, g := range counts {
		if n := g.Payload.(int); n > rounds {
			rounds = n
		}
	}

	right := (rank + 1) % size
	left := (rank - 1 + size) % size
	for round := 0; round < rounds; round++ {
		cur, _, err := st.next(p)
		if err != nil {
			return sent, rs, err
		}
		for s := 0; s < size-1; s++ {
			b := pageBytesOf(cur)
			p.SendReliable(cm.Member(right), tag, cur, b)
			sent += int64(b)
			process(cur)
			msg := p.RecvReliable(cm.Member(left), tag)
			cur = msg.Payload.([]itemset.Transaction)
		}
		process(cur)
	}
	return sent, rs, nil
}
