package txstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// PartitionInfo is the manifest's record of one partition file.
type PartitionInfo struct {
	File         string `json:"file"`
	Transactions int    `json:"transactions"`
	Blocks       int    `json:"blocks"`
	// Bytes is the on-disk file size, header and block framing included.
	Bytes int64 `json:"bytes"`
	// ModeledBytes is the partition's share of the modeled database size
	// (the sum of Transaction.Bytes), the unit the I/O cost model charges.
	ModeledBytes int64 `json:"modeled_bytes"`
	// MinItem/MaxItem and MinID/MaxID are the partition's item and
	// transaction-ID ranges; all four are -1 for an empty partition.
	MinItem int   `json:"min_item"`
	MaxItem int   `json:"max_item"`
	MinID   int64 `json:"min_id"`
	MaxID   int64 `json:"max_id"`
	// CRC32 is the IEEE CRC-32 of the entire partition file.
	CRC32 uint32 `json:"crc32"`
}

// Manifest describes a partitioned transaction store.
type Manifest struct {
	Version      int             `json:"version"`
	NumItems     int             `json:"num_items"`
	Transactions int             `json:"transactions"`
	BlockBytes   int             `json:"block_bytes"`
	ModeledBytes int64           `json:"modeled_bytes"`
	Partitions   []PartitionInfo `json:"partitions"`
}

// parseManifest decodes and validates a manifest.  Every error is a
// *ManifestError; validation failures name the offending field.
func parseManifest(data []byte) (*Manifest, error) {
	var m Manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return nil, &ManifestError{Reason: "decoding: " + err.Error()}
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

func (m *Manifest) validate() error {
	bad := func(format string, args ...any) error {
		return &ManifestError{Reason: fmt.Sprintf(format, args...)}
	}
	if m.Version != partVersion {
		return bad("unsupported version %d", m.Version)
	}
	if m.NumItems < 0 || m.NumItems > math.MaxInt32 {
		return bad("implausible num_items %d", m.NumItems)
	}
	if m.Transactions < 0 {
		return bad("negative transactions %d", m.Transactions)
	}
	if m.BlockBytes <= 0 {
		return bad("non-positive block_bytes %d", m.BlockBytes)
	}
	if m.ModeledBytes < 0 {
		return bad("negative modeled_bytes %d", m.ModeledBytes)
	}
	var sumTxns int
	var sumModeled int64
	seen := make(map[string]bool, len(m.Partitions))
	for i, p := range m.Partitions {
		if p.File == "" || p.File != filepath.Base(p.File) || p.File == "." || p.File == ".." {
			return bad("partition %d: bad file name %q", i, p.File)
		}
		if seen[p.File] {
			return bad("partition %d: duplicate file %q", i, p.File)
		}
		seen[p.File] = true
		if p.Transactions < 0 || p.Blocks < 0 || p.Bytes < 0 || p.ModeledBytes < 0 {
			return bad("partition %d: negative counts", i)
		}
		if p.Transactions > 0 && p.Blocks == 0 {
			return bad("partition %d: %d transactions in zero blocks", i, p.Transactions)
		}
		if p.Transactions == 0 {
			if p.MinItem != -1 || p.MaxItem != -1 || p.MinID != -1 || p.MaxID != -1 {
				return bad("partition %d: empty partition with non-sentinel ranges", i)
			}
		} else {
			// A partition of empty transactions has IDs but no item range.
			itemless := p.MinItem == -1 && p.MaxItem == -1
			if !itemless && (p.MinItem < 0 || p.MaxItem < p.MinItem || p.MaxItem >= m.NumItems) {
				return bad("partition %d: item range [%d,%d] outside vocabulary %d", i, p.MinItem, p.MaxItem, m.NumItems)
			}
			if p.MinID < 0 || p.MaxID < p.MinID {
				return bad("partition %d: bad ID range [%d,%d]", i, p.MinID, p.MaxID)
			}
		}
		sumTxns += p.Transactions
		sumModeled += p.ModeledBytes
	}
	if sumTxns != m.Transactions {
		return bad("partition transaction counts sum to %d, manifest says %d", sumTxns, m.Transactions)
	}
	if sumModeled != m.ModeledBytes {
		return bad("partition modeled bytes sum to %d, manifest says %d", sumModeled, m.ModeledBytes)
	}
	return nil
}

// writeManifest marshals m deterministically and writes it into dir.
func writeManifest(dir string, m *Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("txstore: encoding manifest: %w", err)
	}
	data = append(data, '\n')
	err = WriteAtomic(filepath.Join(dir, ManifestName), func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	if err != nil {
		return fmt.Errorf("txstore: writing manifest: %w", err)
	}
	return nil
}

// WriteAtomic replaces path with what write produces, durably.  The bytes go
// to path+".tmp", which is synced and closed before it is renamed over path;
// the directory is synced after the rename, so the new name survives a crash
// as well as the bytes it names.  A failure before the rename removes the
// temp file and leaves path as it was.
func WriteAtomic(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir makes a directory's entries — a rename, a newly created file —
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// readManifest loads and validates dir's manifest.
func readManifest(dir string) (*Manifest, error) {
	path := filepath.Join(dir, ManifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, &ManifestError{Path: path, Reason: err.Error()}
	}
	m, err := parseManifest(data)
	if err != nil {
		if me, ok := err.(*ManifestError); ok {
			me.Path = path
		}
		return nil, err
	}
	return m, nil
}
