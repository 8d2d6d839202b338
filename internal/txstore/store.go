package txstore

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"parapriori/internal/itemset"
)

// Store is an opened partitioned transaction store.  It implements
// itemset.Source: Info comes straight from the manifest and Blocks streams
// every partition in order, so a full-database scan never materializes more
// than one block.
type Store struct {
	dir string
	man *Manifest

	// free holds the buffers of closed readers for the next open to take, so
	// read state lives as long as the handle: a handle ends up owning one
	// set per reader it ever had open at once (one per rank in a mining
	// run), however many partitions and passes they go on to read.
	mu   sync.Mutex
	free []*readBufs
	// poison is a test seam, called on a reader's buffers before every Next
	// and at Close: the poison test scribbles over them there, so a block
	// retained past its validity cannot go unnoticed.
	poison func(*readBufs)
}

// takeBufs returns a free readBufs (or a cold one) with its file buffer
// reset onto f.
func (s *Store) takeBufs(f *os.File) *readBufs {
	s.mu.Lock()
	var b *readBufs
	if n := len(s.free); n > 0 {
		b, s.free = s.free[n-1], s.free[:n-1]
	}
	s.mu.Unlock()
	if b == nil {
		return &readBufs{br: bufio.NewReaderSize(f, 1<<16)}
	}
	b.br.Reset(f)
	return b
}

// putBufs returns a closed reader's buffers to the free list.
func (s *Store) putBufs(b *readBufs) {
	b.br.Reset(nil) // do not pin the closed file
	s.mu.Lock()
	s.free = append(s.free, b)
	s.mu.Unlock()
}

// Open loads dir's manifest, verifies that every partition file exists with
// the size the manifest recorded, and returns the store.
func Open(dir string) (*Store, error) {
	man, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	for _, p := range man.Partitions {
		path := filepath.Join(dir, p.File)
		fi, err := os.Stat(path)
		if err != nil {
			return nil, &ManifestError{Path: path, Reason: "missing partition file: " + err.Error()}
		}
		if fi.Size() != p.Bytes {
			return nil, &ManifestError{Path: path, Reason: fmt.Sprintf("partition size mismatch (file %d bytes, manifest %d)", fi.Size(), p.Bytes)}
		}
	}
	return &Store{dir: dir, man: man}, nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Manifest returns the store's manifest.  Callers must not mutate it.
func (s *Store) Manifest() *Manifest { return s.man }

// Partitions returns the partition count.
func (s *Store) Partitions() int { return len(s.man.Partitions) }

// Info implements itemset.Source.  Bytes is the modeled database size (the
// same accounting as Dataset.Bytes), not the on-disk size.
func (s *Store) Info() itemset.SourceInfo {
	return itemset.SourceInfo{
		NumItems: s.man.NumItems,
		NumTxns:  s.man.Transactions,
		Bytes:    s.man.ModeledBytes,
	}
}

// OpenPartition opens partition i for block-at-a-time reading, validating
// its header against the manifest.  With reuse enabled a block lives in the
// reader's recycled buffers and is valid only until the next Next or Close;
// disable reuse when blocks must outlive that (e.g. when they are handed to
// another goroutine).  Safe for concurrent use; Close the reader to hand its
// buffers on to the next open.
func (s *Store) OpenPartition(i int, reuse bool) (*BlockReader, error) {
	if i < 0 || i >= len(s.man.Partitions) {
		return nil, &ManifestError{Path: s.dir, Reason: fmt.Sprintf("no partition %d", i)}
	}
	p := s.man.Partitions[i]
	path := filepath.Join(s.dir, p.File)
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("txstore: opening partition: %w", err)
	}
	r := &BlockReader{
		store: s,
		bufs:  s.takeBufs(f),
		path:  path,
		file:  f,
		part:  i,
		size:  p.Bytes,
		reuse: reuse,
	}
	if !reuse {
		// Decoded blocks leave with the caller, so the arenas a reuse-mode
		// reader left here would sit idle for the whole scan: let them go.
		r.bufs.txns, r.bufs.items = nil, nil
	}
	if err := r.readHeader(s.man.NumItems); err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

// Blocks implements itemset.Source, streaming every partition in manifest
// order.  Blocks and their transactions are reused between callbacks.
func (s *Store) Blocks(fn func(block []itemset.Transaction) error) error {
	for i := range s.man.Partitions {
		r, err := s.OpenPartition(i, true)
		if err != nil {
			return err
		}
		for {
			blk, _, _, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				r.Close()
				return err
			}
			if err := fn(blk); err != nil {
				r.Close()
				return err
			}
		}
		if err := r.Close(); err != nil {
			return err
		}
	}
	return nil
}
