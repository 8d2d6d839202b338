package txstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"

	"parapriori/internal/itemset"
)

// Options configures a spill into a store.
type Options struct {
	// Partitions fixes the partition count: transactions are dealt
	// round-robin across exactly this many files, which balances them
	// without knowing N up front.  When zero, the writer instead rolls to a
	// new partition whenever the current file reaches MaxPartBytes.
	Partitions int
	// BlockBytes is the target encoded payload size per block (default
	// DefaultBlockBytes).  It bounds a reader's resident set.
	BlockBytes int
	// MaxPartBytes bounds partition file size in the size-rolled mode
	// (default DefaultMaxPartBytes).  Ignored when Partitions > 0.
	MaxPartBytes int64
}

func (o Options) withDefaults() Options {
	if o.BlockBytes <= 0 {
		o.BlockBytes = DefaultBlockBytes
	}
	if o.MaxPartBytes <= 0 {
		o.MaxPartBytes = DefaultMaxPartBytes
	}
	return o
}

// partWriter accumulates one partition file.
type partWriter struct {
	index     int
	file      *os.File
	bw        *bufio.Writer
	crc       hash.Hash32
	bytes     int64
	payload   []byte
	blockTxns int
	prevID    int64
	info      PartitionInfo
}

// writer spills a stream of transactions into a partitioned store
// directory.  Add transactions in non-decreasing ID order, then Close to
// flush the partition files and write the manifest.
type writer struct {
	dir    string
	opt    Options
	num    int // numItems
	parts  []*partWriter
	n      int   // transactions appended
	lastID int64 // last appended ID (ordering check)
	closed bool
}

// newWriter creates (or truncates into) a store under dir.  numItems is the
// item vocabulary size; every appended item must lie in [0, numItems).
func newWriter(dir string, numItems int, o Options) (*writer, error) {
	if numItems <= 0 || numItems > math.MaxInt32 {
		return nil, fmt.Errorf("txstore: numItems %d outside [1, 2^31-1]", numItems)
	}
	o = o.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("txstore: creating store dir: %w", err)
	}
	w := &writer{dir: dir, opt: o, num: numItems, lastID: -1}
	if o.Partitions > 0 {
		for i := 0; i < o.Partitions; i++ {
			if _, err := w.newPart(); err != nil {
				return nil, err
			}
		}
	}
	return w, nil
}

// newPart opens the next partition file and writes its header.
func (w *writer) newPart() (*partWriter, error) {
	idx := len(w.parts)
	name := partFileName(idx)
	f, err := os.Create(filepath.Join(w.dir, name))
	if err != nil {
		return nil, fmt.Errorf("txstore: creating partition: %w", err)
	}
	p := &partWriter{
		index:   idx,
		file:    f,
		bw:      bufio.NewWriterSize(f, 1<<16),
		crc:     crc32.NewIEEE(),
		payload: make([]byte, 0, w.opt.BlockBytes+512),
		info: PartitionInfo{
			File:    name,
			MinItem: -1, MaxItem: -1, MinID: -1, MaxID: -1,
		},
	}
	var hdr []byte
	hdr = append(hdr, partMagic...)
	hdr = append(hdr, partVersion)
	hdr = binary.AppendUvarint(hdr, uint64(idx))
	hdr = binary.AppendUvarint(hdr, uint64(w.num))
	if err := p.write(hdr); err != nil {
		return nil, err
	}
	w.parts = append(w.parts, p)
	return p, nil
}

func (p *partWriter) write(b []byte) error {
	if _, err := p.bw.Write(b); err != nil {
		return fmt.Errorf("txstore: writing %s: %w", p.info.File, err)
	}
	p.crc.Write(b) // hash.Hash never errors
	p.bytes += int64(len(b))
	return nil
}

// flushBlock frames and writes the pending payload as one block.
func (p *partWriter) flushBlock() error {
	if p.blockTxns == 0 {
		return nil
	}
	var hdr [2*binary.MaxVarintLen64 + 4]byte
	n := binary.PutUvarint(hdr[:], uint64(p.blockTxns))
	n += binary.PutUvarint(hdr[n:], uint64(len(p.payload)))
	binary.LittleEndian.PutUint32(hdr[n:], crc32.ChecksumIEEE(p.payload))
	n += 4
	if err := p.write(hdr[:n]); err != nil {
		return err
	}
	if err := p.write(p.payload); err != nil {
		return err
	}
	p.info.Blocks++
	p.payload = p.payload[:0]
	p.blockTxns = 0
	return nil
}

// add spills one transaction.  IDs must be non-decreasing across the
// stream and items strictly increasing within the transaction, exactly as
// itemset.WriteBinary requires; an item outside the writer's vocabulary is
// an *itemset.ItemRangeError.  A refused transaction is not in the store,
// in whole or in part: the caller may carry on with the next one.
func (w *writer) add(t itemset.Transaction) error {
	if w.closed {
		return fmt.Errorf("txstore: add after Close")
	}
	if t.ID < 0 || (w.n > 0 && t.ID < w.lastID) {
		return fmt.Errorf("txstore: transaction IDs must be non-decreasing (%d after %d)", t.ID, w.lastID)
	}
	// Items ascend (AppendTransaction refuses them otherwise), so the two
	// ends bound them all.  Checked before anything is encoded.
	if n := len(t.Items); n > 0 {
		for _, it := range [2]itemset.Item{t.Items[0], t.Items[n-1]} {
			if uint(it) >= uint(w.num) {
				return &itemset.ItemRangeError{Txn: t.ID, Item: it, NumItems: w.num}
			}
		}
	}
	var p *partWriter
	if w.opt.Partitions > 0 {
		p = w.parts[w.n%w.opt.Partitions]
	} else {
		if len(w.parts) == 0 || w.parts[len(w.parts)-1].bytes >= w.opt.MaxPartBytes {
			// Roll: finish the current partition and start the next.
			if len(w.parts) > 0 {
				if err := w.finishPart(w.parts[len(w.parts)-1]); err != nil {
					return err
				}
			}
			var err error
			if p, err = w.newPart(); err != nil {
				return err
			}
		} else {
			p = w.parts[len(w.parts)-1]
		}
	}
	var err error
	p.payload, err = itemset.AppendTransaction(p.payload, t, p.prevID)
	if err != nil {
		return fmt.Errorf("txstore: transaction %d: %w", w.n, err)
	}
	if n := len(t.Items); n > 0 {
		last := int(t.Items[n-1])
		if p.info.MinItem == -1 || int(t.Items[0]) < p.info.MinItem {
			p.info.MinItem = int(t.Items[0])
		}
		if last > p.info.MaxItem {
			p.info.MaxItem = last
		}
	}
	if p.info.MinID == -1 {
		p.info.MinID = t.ID
	}
	p.info.MaxID = t.ID
	p.prevID = t.ID
	p.blockTxns++
	p.info.Transactions++
	p.info.ModeledBytes += int64(t.Bytes())
	w.lastID = t.ID
	w.n++
	if len(p.payload) >= w.opt.BlockBytes {
		return p.flushBlock()
	}
	return nil
}

// finishPart flushes a partition's pending block, syncs its file to disk
// (the manifest written after it vouches for these bytes) and closes it.
func (w *writer) finishPart(p *partWriter) error {
	if p.file == nil {
		return nil
	}
	if err := p.flushBlock(); err != nil {
		return err
	}
	if err := p.bw.Flush(); err != nil {
		return fmt.Errorf("txstore: flushing %s: %w", p.info.File, err)
	}
	if err := p.file.Sync(); err != nil {
		return fmt.Errorf("txstore: syncing %s: %w", p.info.File, err)
	}
	if err := p.file.Close(); err != nil {
		return fmt.Errorf("txstore: closing %s: %w", p.info.File, err)
	}
	p.file = nil
	p.info.Bytes = p.bytes
	p.info.CRC32 = p.crc.Sum32()
	return nil
}

// Close flushes every partition, writes the manifest, and returns it.
func (w *writer) Close() (*Manifest, error) {
	if w.closed {
		return nil, fmt.Errorf("txstore: double Close")
	}
	w.closed = true
	m := &Manifest{
		Version:    partVersion,
		NumItems:   w.num,
		BlockBytes: w.opt.BlockBytes,
		Partitions: make([]PartitionInfo, 0, len(w.parts)),
	}
	for _, p := range w.parts {
		if err := w.finishPart(p); err != nil {
			return nil, err
		}
		m.Transactions += p.info.Transactions
		m.ModeledBytes += p.info.ModeledBytes
		m.Partitions = append(m.Partitions, p.info)
	}
	if err := writeManifest(w.dir, m); err != nil {
		return nil, err
	}
	return m, nil
}

// Spill streams an entire Source into a new store under dir and returns the
// manifest.
func Spill(dir string, src itemset.Source, o Options) (*Manifest, error) {
	w, err := newWriter(dir, src.Info().NumItems, o)
	if err != nil {
		return nil, err
	}
	err = src.Blocks(func(block []itemset.Transaction) error {
		for _, t := range block {
			if err := w.add(t); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return w.Close()
}
