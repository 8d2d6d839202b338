// Package txstore is a spill-to-disk partitioned transaction store: the
// out-of-core backing for mining runs whose database does not fit in
// memory.  A store is a directory of partition files plus a JSON manifest.
//
// Each partition file carries a small header and then a sequence of
// independently-checksummed blocks:
//
//	header: magic "PAPP" (4 bytes) | version (1 byte, = 1) |
//	        partition index (uvarint) | numItems (uvarint)
//	block:  transaction count (uvarint) | payload length (uvarint) |
//	        CRC-32/IEEE of the payload (4 bytes little-endian) | payload
//
// The payload is the per-transaction varint/delta encoding shared with
// itemset.WriteBinary (itemset.AppendTransaction), with the previous
// transaction ID chained across blocks within a partition.  Blocks are the
// unit of reading: a mining pass streams one block at a time through
// countengine.CountBlock, so the resident set is bounded by the block size,
// never by N.
//
// The manifest (manifest.json) records per-partition transaction counts,
// item and ID ranges, on-disk and modeled byte sizes, and a whole-file
// CRC-32 — enough for a reader to plan a run (and detect damage) without
// touching the partition files.
package txstore

import (
	"fmt"
	"strconv"
)

const (
	partMagic   = "PAPP"
	partVersion = 1

	// ManifestName is the manifest file name inside a store directory.
	ManifestName = "manifest.json"

	// DefaultBlockBytes is the target encoded payload size per block.
	DefaultBlockBytes = 256 << 10
)

// maxPartBytes bounds a partition file's size when the writer rolls
// partitions by size (Options.Partitions == 0).  A variable only so tests
// can lower it.
var maxPartBytes int64 = 64 << 20

// partFileName returns the canonical partition file name for index i.
func partFileName(i int) string {
	return fmt.Sprintf("part-%04d.bin", i)
}

// TruncatedError reports a partition file that ends mid-header or
// mid-block — the on-disk data is shorter than its own framing promises.
type TruncatedError struct {
	File  string // partition file path
	Block int    // index of the block being read when the file ran out
}

func (e *TruncatedError) Error() string {
	return "txstore: " + e.File + ": truncated in block " + strconv.Itoa(e.Block)
}

// CorruptError reports a partition file whose framing is intact but whose
// contents fail validation — a checksum mismatch, a malformed transaction
// encoding, or an implausible header field.
type CorruptError struct {
	File   string // partition file path
	Block  int    // block index, -1 for header corruption
	Reason string
}

func (e *CorruptError) Error() string {
	if e.Block < 0 {
		return "txstore: " + e.File + ": corrupt header: " + e.Reason
	}
	return "txstore: " + e.File + ": corrupt block " + strconv.Itoa(e.Block) + ": " + e.Reason
}

// ManifestError reports an unreadable or inconsistent store manifest.
type ManifestError struct {
	Path   string // manifest path, empty when parsing raw bytes
	Reason string
}

func (e *ManifestError) Error() string {
	if e.Path == "" {
		return "txstore: manifest: " + e.Reason
	}
	return "txstore: " + e.Path + ": " + e.Reason
}
