package core

import (
	"fmt"
	"io"

	"parapriori/internal/cluster"
	"parapriori/internal/itemset"
	"parapriori/internal/obsv"
	"parapriori/internal/txstore"
)

// ExecBackend selects how the SPMD body gets at the transactions.
type ExecBackend string

const (
	// BackendInMem is the classic emulation: the whole dataset is resident,
	// split into per-rank shards, and I/O is charged through the cost model
	// from the shards' modeled byte sizes.
	BackendInMem ExecBackend = "inmem"
	// BackendOOC is the out-of-core backend: each rank streams its own
	// partition files of a spill-to-disk store (Params.Store) one block at
	// a time, charging real on-disk bytes per block — the paper's
	// disk-resident CD as a map/reduce over partition files, and the same
	// for every formulation that counts through the transaction stream.
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

// txStream is one scan of the transactions a rank owns.  It is the only
// place the body meets the backend: the resident stream serves pages of the
// rank's shards, the store stream blocks of its partition files, and each
// charges its own I/O.
type txStream interface {
	// blocks is how many blocks the scan yields in total, known before the
	// first is read — what ring and scatter peers agree their rounds on.
	blocks() int
	// next returns the next block, or nil once the scan is exhausted (and
	// on every call after that).  A block is valid until the following next
	// or close unless the stream was opened shared.
	next(p *cluster.Proc) ([]itemset.Transaction, error)
	// close ends the scan, releasing any open partition file, and returns
	// what it read from disk.  Closing again is harmless and returns the
	// same stats, so a scan is closed both deferred — a scheduled crash
	// panics out of next — and where its stats are wanted.
	close() ReadStats
}

// openStream starts a scan of the rank's transactions.  shared says blocks
// will be handed to other ranks, so they must outlive the next read.
func (r *run) openStream(p *cluster.Proc, shared bool) txStream {
	if r.store != nil {
		return r.openPartStream(p.ID(), !shared)
	}
	// The resident shards' modeled bytes are charged as one read when the
	// scan opens — before any collective of the movement that follows — and
	// the pages alias the dataset, so they are always safe to share.
	var pages [][]itemset.Transaction
	var bytes int64
	for _, si := range r.ownedShards[p.ID()] {
		pages = append(pages, r.shards[si].Pages(PageBytes)...)
		bytes += int64(r.shards[si].Bytes())
	}
	p.ReadIO(bytes, "io")
	return &residentStream{pages: pages}
}

// residentStream serves the pages of the shards a rank owns (its own plus
// any adopted from lost ranks), in shard order.
type residentStream struct {
	pages [][]itemset.Transaction
	at    int
}

func (s *residentStream) blocks() int { return len(s.pages) }

func (s *residentStream) next(*cluster.Proc) ([]itemset.Transaction, error) {
	if s.at == len(s.pages) {
		return nil, nil
	}
	s.at++
	return s.pages[s.at-1], nil
}

func (s *residentStream) close() ReadStats { return ReadStats{} }

// scan feeds every remaining block of the stream to fn.
func scan(p *cluster.Proc, st txStream, fn func([]itemset.Transaction)) error {
	for {
		blk, err := st.next(p)
		if blk == nil || err != nil {
			return err
		}
		fn(blk)
	}
}

// ownedPartsOf maps a rank to the store partitions it streams: the
// contiguous range [v*M/np, (v+1)*M/np) over the rank's virtual position,
// the partition-file analogue of Dataset.Split.
func (r *run) ownedPartsOf(rank int) []int {
	v := r.vrank[rank]
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

// blockStream walks a rank's owned partitions block by block, charging the
// real on-disk bytes of every block against the rank's virtual I/O clock as
// it is read — after the movement's collectives, not before — and recording
// per-block read and decode spans.  With reuse enabled a block lives in
// buffers the store recycles from reader to reader, partition after
// partition and pass after pass, so it is only valid until the next call to
// next or close.
type blockStream struct {
	r     *run
	parts []int
	idx   int
	cur   *txstore.BlockReader
	reuse bool
	total int // blocks this stream will yield, from the manifest
	stats ReadStats
}

// openPartStream prepares the rank's partition stream.  The total block
// count comes from the manifest, so peers can agree on round counts without
// touching the partition files.
func (r *run) openPartStream(rank int, reuse bool) *blockStream {
	parts := r.ownedPartsOf(rank)
	man := r.store.Manifest()
	total := 0
	for _, pi := range parts {
		total += man.Partitions[pi].Blocks
	}
	return &blockStream{r: r, parts: parts, reuse: reuse, total: total}
}

func (s *blockStream) blocks() int { return s.total }

// next implements txStream.  The block's read and decode costs land on p's
// clock before the block is returned.
func (s *blockStream) next(p *cluster.Proc) ([]itemset.Transaction, error) {
	for {
		if s.cur == nil {
			if s.idx >= len(s.parts) {
				return nil, nil
			}
			br, err := s.r.store.OpenPartition(s.parts[s.idx], s.reuse)
			if err != nil {
				return nil, err
			}
			s.cur = br
			s.idx++
		}
		blk, items, db, err := s.cur.Next()
		if err == io.EOF {
			if cerr := s.finishReader(); cerr != nil {
				return nil, cerr
			}
			continue
		}
		if err != nil {
			return nil, err
		}
		start := p.Clock()
		p.ReadIO(int64(db), "io")
		// Every read is synchronous — the rank's clock waits on the block
		// (no read-ahead; the ROADMAP double-buffering item would hide it).
		s.stats.Stalls++
		s.stats.Blocks++
		s.stats.Bytes += int64(db)
		s.r.sec(p, "read", start, obsv.Int("bytes", int64(db)))
		decStart := p.Clock()
		chargeScan(p, int64(items), "decode")
		s.stats.DecodeSeconds += p.Clock() - decStart
		s.r.sec(p, "decode", decStart, obsv.Int("items", int64(items)))
		return blk, nil
	}
}

// finishReader folds the current partition reader's stats (the partition
// open and any survived checksum retries) into the stream's and closes it.
func (s *blockStream) finishReader() error {
	if s.cur == nil {
		return nil
	}
	st := s.cur.Stats()
	s.stats.Partitions += st.Partitions
	s.stats.CRCRetries += st.CRCRetries
	err := s.cur.Close()
	s.cur = nil
	return err
}

func (s *blockStream) close() ReadStats {
	_ = s.finishReader() // the scan's outcome is already decided; a reader only read
	return s.stats
}
