package core

import (
	"io"

	"parapriori/internal/cluster"
	"parapriori/internal/itemset"
	"parapriori/internal/obsv"
	"parapriori/internal/txstore"
)

// txStream is one scan of the transactions a rank owns.  It is the only
// place the body meets the source Mine was given, whose type is the backend:
// the resident stream serves pages of the rank's shards of a *Dataset, the
// store stream blocks of its partition files of a *txstore.Store, and each
// charges its own I/O.
type txStream interface {
	// blocks is how many blocks the scan yields in total, known before the
	// first is read — what ring and scatter peers agree their rounds on.
	blocks() int
	// next returns the next block, or nil once the scan is exhausted (and
	// on every call after that).  A block is valid until the following next
	// or close unless the stream was opened shared.
	next(p *cluster.Proc) ([]itemset.Transaction, error)
	// skim is next without the block, for a scan whose transactions a
	// carried index already holds: it charges and records what next would,
	// and returns the block's transaction and item counts, or 0, 0 once the
	// scan is exhausted.  Empty blocks, which next's callers pass over, are
	// passed over here.
	skim(p *cluster.Proc) (txns, items int, err error)
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

func (s *residentStream) skim(*cluster.Proc) (txns, items int, err error) {
	for ; s.at < len(s.pages); s.at++ {
		if page := s.pages[s.at]; len(page) > 0 {
			for _, t := range page {
				items += len(t.Items)
			}
			s.at++
			return len(page), items, nil
		}
	}
	return 0, 0, nil
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
	blk, _, _, err := s.read(p, false)
	return blk, err
}

// skim implements txStream: the block is read and verified, not decoded, and
// charged as next charges it.
func (s *blockStream) skim(p *cluster.Proc) (txns, items int, err error) {
	_, txns, items, err = s.read(p, true)
	return txns, items, err
}

// read moves to the next block — decoding it, or only verifying it to skim
// — and charges its read and decode on p's clock.
func (s *blockStream) read(p *cluster.Proc, skim bool) (blk []itemset.Transaction, txns, items int, err error) {
	for {
		if s.cur == nil {
			if s.idx >= len(s.parts) {
				return nil, 0, 0, nil
			}
			br, err := s.r.store.OpenPartition(s.parts[s.idx], s.reuse)
			if err != nil {
				return nil, 0, 0, err
			}
			s.cur = br
			s.idx++
		}
		var db int
		if skim {
			txns, items, db, err = s.cur.Skim()
		} else {
			blk, items, db, err = s.cur.Next()
			txns = len(blk)
		}
		if err == io.EOF {
			if cerr := s.finishReader(); cerr != nil {
				return nil, 0, 0, cerr
			}
			continue
		}
		if err != nil {
			return nil, 0, 0, err
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
		return blk, txns, items, nil
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
