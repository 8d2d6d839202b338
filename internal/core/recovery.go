package core

import (
	"errors"
	"fmt"

	"parapriori/internal/apriori"
	"parapriori/internal/cluster"
)

// This file implements fault-tolerant execution for every formulation on
// both backends: pass-level checkpointing of the frequent levels and a
// coordinated-rollback recovery driver.  Nothing here is per algorithm —
// the emulated machine makes every message reliable under a plan (package
// cluster), and the one pass body resumes from whatever levels it holds.
//
// The recovery model is global rollback to the last pass every surviving
// processor completed.  The passes are collective — every active processor
// finishes pass k together or not at all — so the minimum completed level
// across survivors is a consistent cut.  On failure the driver truncates
// every survivor's levels to that cut, clears the in-flight communication
// state (cluster.ResetComm), respawns transient crashers (their virtual
// clocks keep the crash time — recovery time is real time), removes
// permanent losses from the active set, and re-runs the SPMD body over the
// survivors' smaller grid.  A lost rank's data is re-assigned at the
// backend's own granularity: resident shards are adopted by the ring
// successor, store partitions are re-split over the survivors
// (ownedPartsOf) — partition-granular re-execution.  Bodies resume from
// their checkpoint: k = last completed level + 1, and every active rank pays
// the restore charge on re-entry.

// mineWithRecovery drives cl.Run to completion through faults, restarting
// up to MaxRestarts times.
func (r *run) mineWithRecovery(body func(p *cluster.Proc) error) error {
	for {
		err := r.cl.Run(body)
		if err == nil {
			return nil
		}
		crashes, dead, other := collectFaults(err)
		if len(other) > 0 {
			// A non-fault error is a bug in the algorithm, not a scheduled
			// fault; recovery would mask it.
			return err
		}
		if r.restarts >= MaxRestarts {
			return fmt.Errorf("core: giving up after %d recovery attempts: %w", r.restarts, err)
		}
		r.restarts++

		// Rank removal: permanent crashes, plus ranks a survivor declared
		// dead after exhausting the retry protocol.
		remove := make([]bool, r.prm.P)
		for _, ce := range crashes {
			if ce.Permanent {
				remove[ce.Rank] = true
			}
		}
		for _, de := range dead {
			if de.RetriesExhausted {
				remove[de.Peer] = true
			}
		}
		if err := r.degrade(remove); err != nil {
			return err
		}

		// Roll every survivor back to the last globally completed pass.
		minL := -1
		for _, g := range r.active {
			if n := len(r.perProc[g].levels); minL < 0 || n < minL {
				minL = n
			}
		}
		for _, g := range r.active {
			tr := &r.perProc[g]
			tr.levels = tr.levels[:minL]
			tr.passes = tr.passes[:minL]
			r.restartWant[g] = true
		}
		r.cl.ResetComm()
	}
}

// degrade removes the marked ranks from the active set, handing each
// removed rank's shards to its ring successor among the survivors.
func (r *run) degrade(remove []bool) error {
	any := false
	for _, g := range r.active {
		if remove[g] {
			any = true
		}
	}
	if !any {
		return nil
	}
	var kept []int
	for _, g := range r.active {
		if remove[g] {
			r.lost = append(r.lost, g)
		} else {
			kept = append(kept, g)
		}
	}
	if len(kept) == 0 {
		return fmt.Errorf("core: all %d processors lost, cannot recover", r.prm.P)
	}
	// Adopt shards: each removed rank's shards go to the next surviving
	// rank on the (old) active ring, so data locality degrades gracefully
	// instead of re-sharding the whole database.
	for _, g := range r.active {
		if !remove[g] {
			continue
		}
		succ := r.ringSuccessor(g, remove)
		r.ownedShards[succ] = append(r.ownedShards[succ], r.ownedShards[g]...)
		r.ownedShards[g] = nil
	}
	r.active = kept
	r.rebuildVRank()
	r.world = r.mustComm(kept)
	return nil
}

// ringSuccessor returns the first non-removed rank after g on the current
// active ring.
func (r *run) ringSuccessor(g int, remove []bool) int {
	v := r.vrank[g]
	n := len(r.active)
	for i := 1; i < n; i++ {
		cand := r.active[(v+i)%n]
		if !remove[cand] {
			return cand
		}
	}
	return g // unreachable: degrade checks at least one survivor remains
}

// mustComm builds a communicator over the given global ranks.
func (r *run) mustComm(members []int) *cluster.Comm {
	cm, err := cluster.NewComm(r.cl, members)
	if err != nil {
		panic(err) // unreachable: members are valid surviving ranks
	}
	return cm
}

// collectFaults flattens the error tree Cluster.Run returns and buckets the
// leaves into scheduled crashes, dead-peer detections, and everything else.
func collectFaults(err error) (crashes []*cluster.CrashError, dead []*cluster.DeadRankError, other []error) {
	var walk func(e error)
	walk = func(e error) {
		if e == nil {
			return
		}
		if multi, ok := e.(interface{ Unwrap() []error }); ok {
			for _, sub := range multi.Unwrap() {
				walk(sub)
			}
			return
		}
		var ce *cluster.CrashError
		if errors.As(e, &ce) {
			crashes = append(crashes, ce)
			return
		}
		var de *cluster.DeadRankError
		if errors.As(e, &de) {
			dead = append(dead, de)
			return
		}
		other = append(other, e)
	}
	walk(err)
	return crashes, dead, other
}

// checkpoint persists one completed level.  Under a fault plan it charges
// the modeled cost — writing the serialized frequent itemsets (at I/O
// bandwidth) plus touching each item once; the virtual clock of fault-free
// runs is unchanged.  With Params.CheckpointDir set it also rewrites the
// on-disk checkpoint (see persist.go), so a killed process resumes from its
// last completed pass.
func (r *run) checkpoint(p *cluster.Proc, level []apriori.Frequent) error {
	if r.prm.Faults != nil {
		p.ReadIO(int64(frequentBytes(level)), "checkpoint")
		p.Compute(float64(levelItems(level))*p.Machine().TItem, "checkpoint")
	}
	return r.persistCheckpoint(p.ID())
}

// chargeRestore charges the cost of reloading the checkpointed levels when
// a body re-enters after a rollback.
func (r *run) chargeRestore(p *cluster.Proc, tr *procTrace) {
	if !r.restartWant[p.ID()] {
		return
	}
	r.restartWant[p.ID()] = false
	restStart := p.Clock()
	var bytes, items int64
	for _, level := range tr.levels {
		bytes += int64(frequentBytes(level))
		items += levelItems(level)
	}
	p.ReadIO(bytes, "recovery")
	p.Compute(float64(items)*p.Machine().TItem, "recovery")
	r.sec(p, "recovery", restStart)
}

// levelItems counts the items across a frequent level.
func levelItems(level []apriori.Frequent) int64 {
	var n int64
	for _, f := range level {
		n += int64(len(f.Items))
	}
	return n
}
