package core

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"parapriori/internal/apriori"
	"parapriori/internal/txstore"
)

// Persistent pass-level checkpoints.  With Params.CheckpointDir set, the
// first active rank rewrites <dir>/checkpoint.freq after every completed
// pass — the full frequent levels so far in the WriteResult codec, written
// to a synced temp file and renamed (txstore.WriteAtomic) so a kill or a
// crash mid-write leaves the previous checkpoint intact.  The next Mine over the same workload (same transaction
// count and minimum count — the codec header records both) seeds every
// rank's levels from the file and resumes at the first unmined pass, through
// the same resume path a fault-rollback uses.  A checkpoint from a different
// workload is an error, not a silent re-mine: pointing a resume at the wrong
// directory should fail loudly.

// checkpointFile is the checkpoint's name inside Params.CheckpointDir.
const checkpointFile = "checkpoint.freq"

// persistCheckpoint atomically rewrites the checkpoint file with every
// level the rank has completed.  Only the first active rank writes: levels
// are globally identical, and a single writer keeps the file race-free
// without coordination.
func (r *run) persistCheckpoint(rank int) error {
	if r.prm.CheckpointDir == "" || rank != r.firstActive() {
		return nil
	}
	res := &apriori.Result{N: r.nTxns, MinCount: r.minCount, Levels: r.perProc[rank].levels}
	err := txstore.WriteAtomic(filepath.Join(r.prm.CheckpointDir, checkpointFile), func(w io.Writer) error {
		return apriori.WriteResult(w, res)
	})
	if err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	return nil
}

// loadCheckpoint seeds the run from a persisted checkpoint, if one exists.
// Every rank gets its own outer slice over the shared (read-only) levels,
// synthesized pass records marked Restored, and a pending restore charge so
// the reload cost appears on the virtual clock.  Returns the number of
// passes resumed.
func (r *run) loadCheckpoint() (int, error) {
	if r.prm.CheckpointDir == "" {
		return 0, nil
	}
	f, err := os.Open(filepath.Join(r.prm.CheckpointDir, checkpointFile))
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil // first run in this directory
	}
	if err != nil {
		return 0, fmt.Errorf("core: checkpoint: %w", err)
	}
	defer f.Close()
	res, err := apriori.ReadResult(f)
	if err != nil {
		return 0, fmt.Errorf("core: checkpoint: %w", err)
	}
	if res.N != r.nTxns || res.MinCount != r.minCount {
		return 0, fmt.Errorf("core: checkpoint in %s is from a different workload (N=%d minCount=%d, this run has N=%d minCount=%d)",
			r.prm.CheckpointDir, res.N, res.MinCount, r.nTxns, r.minCount)
	}
	if len(res.Levels) == 0 {
		return 0, nil
	}
	for _, g := range r.active {
		tr := &r.perProc[g]
		tr.levels = append([][]apriori.Frequent(nil), res.Levels...)
		for i, level := range res.Levels {
			tr.passes = append(tr.passes, passLocal{k: i + 1, frequent: len(level), restored: true})
		}
		r.restartWant[g] = true
	}
	return len(res.Levels), nil
}
