package itemset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// SourceInfo summarizes a transaction source.  Bytes is the modeled database
// size (the sum of Transaction.Bytes over the stream), the same N the
// communication analysis and the I/O cost model are measured in, so a
// Dataset and a spilled copy of it report identical sizes.
type SourceInfo struct {
	NumItems int
	NumTxns  int
	Bytes    int64
}

// Source is an iterator-style transaction source: anything that can stream
// its transactions in blocks without requiring the caller to hold the whole
// database in memory.  Implementations: *Dataset (in-memory), *FileSource
// (basket text or binary file), and txstore.Store (spill-to-disk partitioned
// store).
//
// Blocks calls fn for consecutive blocks of transactions in stream order.
// The block slice and its transactions are only valid during the callback —
// implementations may reuse buffers between blocks.  Blocks may be called
// any number of times; each call re-streams from the start.
type Source interface {
	Info() SourceInfo
	Blocks(fn func(block []Transaction) error) error
}

// ItemRangeError reports a transaction item outside [0, NumItems), the
// vocabulary its source declared.  Every miner indexes per-item tables by
// item, so its first pass returns this error where it would otherwise panic
// or count into the wrong slot.
type ItemRangeError struct {
	Txn      int64 // the transaction's ID
	Item     Item
	NumItems int
}

func (e *ItemRangeError) Error() string {
	return fmt.Sprintf("itemset: transaction %d has item %d, outside the source's %d items", e.Txn, e.Item, e.NumItems)
}

// ItemOrderError reports a transaction whose items are not strictly
// increasing: Item follows Prev, which is no smaller.  Counting structures
// rely on the Itemset invariant (a repeated item would be counted once per
// copy), so the first pass rejects the transaction instead.
type ItemOrderError struct {
	Txn        int64 // the transaction's ID
	Item, Prev Item
}

func (e *ItemOrderError) Error() string {
	return fmt.Sprintf("itemset: transaction %d has item %d after item %d, not in strictly increasing order", e.Txn, e.Item, e.Prev)
}

// CountItems is the first pass's array counting of one block: it adds every
// item occurrence to counts, which is indexed by item and NumItems long, and
// stops with an *ItemRangeError at an item counts has no slot for, or an
// *ItemOrderError at one that does not exceed its predecessor.
func CountItems(counts []int64, block []Transaction) error {
	for _, t := range block {
		prev := Item(-1)
		for _, it := range t.Items {
			if uint(it) >= uint(len(counts)) {
				return &ItemRangeError{Txn: t.ID, Item: it, NumItems: len(counts)}
			}
			if it <= prev {
				return &ItemOrderError{Txn: t.ID, Item: it, Prev: prev}
			}
			prev = it
			counts[it]++
		}
	}
	return nil
}

// sourceBlockTxns is the block granularity Dataset and FileSource stream at.
// It only bounds callback size (and FileSource's resident set); the counting
// cost model charges per transaction, so the value does not affect results.
const sourceBlockTxns = 4096

// Info implements Source.
func (d *Dataset) Info() SourceInfo {
	return SourceInfo{NumItems: d.NumItems, NumTxns: d.Len(), Bytes: int64(d.Bytes())}
}

// Blocks implements Source.  Blocks alias the dataset's backing array and
// remain valid after the callback returns.
func (d *Dataset) Blocks(fn func(block []Transaction) error) error {
	for lo := 0; lo < len(d.Transactions); lo += sourceBlockTxns {
		hi := lo + sourceBlockTxns
		if hi > len(d.Transactions) {
			hi = len(d.Transactions)
		}
		if err := fn(d.Transactions[lo:hi]); err != nil {
			return err
		}
	}
	return nil
}

// Materialize drains a Source into an in-memory Dataset.  A *Dataset source
// is returned as-is.
func Materialize(src Source) (*Dataset, error) {
	if d, ok := src.(*Dataset); ok {
		return d, nil
	}
	d := &Dataset{NumItems: src.Info().NumItems}
	err := src.Blocks(func(block []Transaction) error {
		d.Transactions = appendBlock(d.Transactions, block)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// appendBlock copies a block — valid only during its callback — onto txns:
// one item arena per block, each transaction a capacity-clipped slice of it.
// txns grows with what has been decoded; no source's claimed count sizes it.
func appendBlock(txns, block []Transaction) []Transaction {
	n := 0
	for _, t := range block {
		n += len(t.Items)
	}
	arena := make(Itemset, 0, n)
	for _, t := range block {
		lo := len(arena)
		arena = append(arena, t.Items...)
		txns = append(txns, Transaction{ID: t.ID, Items: arena[lo:len(arena):len(arena)]})
	}
	return txns
}

// streamFunc decodes one format from br block by block: it calls fn (when
// non-nil) per block, whose slices it reuses, and returns the SourceInfo
// accumulated over the whole stream.
type streamFunc func(br *bufio.Reader, fn func(block []Transaction) error) (SourceInfo, error)

// sniff picks the decoder for br from its first bytes, which it leaves
// unread: the binary magic means binary, anything else is basket text.
func sniff(br *bufio.Reader) streamFunc {
	if head, err := br.Peek(len(binaryMagic)); err == nil && string(head) == binaryMagic {
		return streamBinary
	}
	return streamText
}

// collect is the resident reader: the streaming decoder's blocks, kept.
func collect(br *bufio.Reader, stream streamFunc) (*Dataset, error) {
	d := &Dataset{}
	info, err := stream(br, func(block []Transaction) error {
		d.Transactions = appendBlock(d.Transactions, block)
		return nil
	})
	if err != nil {
		return nil, err
	}
	d.NumItems = info.NumItems
	return d, nil
}

// FileSource streams a transaction file (basket text or binary, detected
// from the first bytes) without materializing it.  The file is scanned once
// at OpenFile to compute SourceInfo; each Blocks call re-reads it.
type FileSource struct {
	path string
	info SourceInfo
}

// OpenFile opens path as a streaming transaction source.
func OpenFile(path string) (*FileSource, error) {
	fs := &FileSource{path: path}
	info, err := fs.stream(nil)
	if err != nil {
		return nil, err
	}
	fs.info = info
	return fs, nil
}

// Path returns the underlying file path.
func (f *FileSource) Path() string { return f.path }

// Info implements Source.
func (f *FileSource) Info() SourceInfo { return f.info }

// Blocks implements Source.  The block and its item slices are reused
// between callbacks.
func (f *FileSource) Blocks(fn func(block []Transaction) error) error {
	_, err := f.stream(fn)
	return err
}

// stream reads the file once, calling fn (when non-nil) per block and
// accumulating SourceInfo over the whole stream.
func (f *FileSource) stream(fn func(block []Transaction) error) (SourceInfo, error) {
	fh, err := os.Open(f.path)
	if err != nil {
		return SourceInfo{}, fmt.Errorf("itemset: opening source: %w", err)
	}
	defer fh.Close()
	br := bufio.NewReaderSize(fh, 1<<20)
	return sniff(br)(br, fn)
}

// streamBinary streams a WriteBinary-encoded dataset block by block.
func streamBinary(br *bufio.Reader, fn func(block []Transaction) error) (SourceInfo, error) {
	var magic [5]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return SourceInfo{}, fmt.Errorf("itemset: reading binary header: %w", err)
	}
	if string(magic[:4]) != binaryMagic {
		return SourceInfo{}, fmt.Errorf("itemset: bad magic %q (not a binary dataset)", magic[:4])
	}
	if magic[4] != binaryVersion {
		return SourceInfo{}, fmt.Errorf("itemset: unsupported binary version %d", magic[4])
	}
	numItems, err := binary.ReadUvarint(br)
	if err != nil {
		return SourceInfo{}, fmt.Errorf("itemset: reading numItems: %w", err)
	}
	numTxns, err := binary.ReadUvarint(br)
	if err != nil {
		return SourceInfo{}, fmt.Errorf("itemset: reading transaction count: %w", err)
	}
	// numTxns bounds the loop below and nothing else; numItems must fit an
	// Item for the gap check to mean anything once a gap is narrowed.
	const maxReasonable = 1 << 34
	if numItems > math.MaxInt32 || numTxns > maxReasonable {
		return SourceInfo{}, fmt.Errorf("itemset: implausible header (items %d, transactions %d)", numItems, numTxns)
	}
	info := SourceInfo{NumItems: int(numItems)}
	var block []Transaction
	var items Itemset
	var offs []int32
	flush := func() error {
		if len(block) == 0 {
			return nil
		}
		if fn != nil {
			for k := range block {
				block[k].Items = items[offs[k]:offs[k+1]:offs[k+1]]
			}
			if err := fn(block); err != nil {
				return err
			}
		}
		block = block[:0]
		items = items[:0]
		offs = offs[:0]
		return nil
	}
	// buf[off:] is the window: bytes read but not yet decoded.  A window of
	// maxTxn bytes holds any transaction, so a decode that fails on a
	// shorter one may only be cut short: the window is refilled (grown when
	// full) and the decode retried.  At end of stream, or on a full-size
	// window, the error stands.
	maxTxn := 2*binary.MaxVarintLen64 + binary.MaxVarintLen32*int(numItems)
	var buf []byte
	off, eof := 0, false
	prevID := int64(0)
	for i := uint64(0); i < numTxns; i++ {
		offs = append(offs, int32(len(items)))
		id, out, n, err := DecodeTransaction(buf[off:], prevID, int(numItems), items)
		for err != nil {
			if eof || len(buf)-off >= maxTxn {
				if off == len(buf) {
					err = fmt.Errorf("reading ID: %w", io.EOF)
				}
				return SourceInfo{}, fmt.Errorf("itemset: transaction %d: %w", i, err)
			}
			buf, off = append(buf[:0], buf[off:]...), 0
			if len(buf) == cap(buf) {
				buf = slices.Grow(buf, max(len(buf), 64<<10))
			}
			m, rerr := br.Read(buf[len(buf):cap(buf)])
			buf = buf[:len(buf)+m]
			if eof = rerr == io.EOF; rerr != nil && !eof {
				return SourceInfo{}, fmt.Errorf("itemset: transaction %d: %w", i, rerr)
			}
			id, out, n, err = DecodeTransaction(buf, prevID, int(numItems), items)
		}
		prevID, items, off = id, out, off+n
		info.NumTxns++
		info.Bytes += int64(8 + 4*(len(items)-int(offs[len(offs)-1])))
		block = append(block, Transaction{ID: prevID})
		if len(block) == sourceBlockTxns {
			offs = append(offs, int32(len(items)))
			if err := flush(); err != nil {
				return SourceInfo{}, err
			}
		}
	}
	offs = append(offs, int32(len(items)))
	if err := flush(); err != nil {
		return SourceInfo{}, err
	}
	return info, nil
}

// streamText streams a basket-text dataset block by block.  NumItems is the
// maximum item seen plus one, accumulated over the whole file — callers that
// need it before the stream ends (everyone) go through OpenFile, which scans
// once up front.
func streamText(br *bufio.Reader, fn func(block []Transaction) error) (SourceInfo, error) {
	sc := bufio.NewScanner(br)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var info SourceInfo
	var block []Transaction
	var id int64
	line := 0
	flush := func() error {
		if len(block) == 0 {
			return nil
		}
		if fn != nil {
			if err := fn(block); err != nil {
				return err
			}
		}
		block = block[:0]
		return nil
	}
	for sc.Scan() {
		line++
		text := sc.Text()
		if len(text) == 0 || text[0] == '#' {
			continue
		}
		items, err := parseItems(text)
		if err != nil {
			return SourceInfo{}, fmt.Errorf("itemset: line %d: %w", line, err)
		}
		t := Transaction{ID: id, Items: New(items...)}
		id++
		if n := len(t.Items); n > 0 {
			if last := int(t.Items[n-1]) + 1; last > info.NumItems {
				info.NumItems = last
			}
		}
		info.NumTxns++
		info.Bytes += int64(t.Bytes())
		block = append(block, t)
		if len(block) == sourceBlockTxns {
			if err := flush(); err != nil {
				return SourceInfo{}, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return SourceInfo{}, fmt.Errorf("itemset: reading dataset: %w", err)
	}
	if err := flush(); err != nil {
		return SourceInfo{}, err
	}
	return info, nil
}
