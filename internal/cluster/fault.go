package cluster

import (
	"fmt"
	"sort"
)

// FaultPlan is a seeded, virtual-clock-driven fault schedule for a run.
// Message faults (drop, duplicate, delay, reorder) apply to every frame any
// send posts while the plan is installed, and every receive recovers from
// them (reliable.go); processor faults (crashes, stragglers) fire when a
// processor's virtual clock reaches the configured time.  Every decision is a pure function of (Seed, fault kind, sender,
// receiver, sequence number, attempt) — no wall clock, no shared RNG — so
// two runs with the same plan and workload are bit-identical regardless of
// goroutine scheduling.
type FaultPlan struct {
	// Seed keys the per-message fault decisions.
	Seed uint64

	// Drop is the probability in [0, 1) that a message frame is corrupted
	// in flight.  The frame still arrives (as a tombstone) so the receiver's
	// NIC detects the loss locally and runs the retry protocol.
	Drop float64
	// Dup is the probability that a frame is delivered twice.  The receiver
	// suppresses the duplicate by sequence number.
	Dup float64
	// Delay is the probability that a frame's wire availability is pushed
	// back by DelaySeconds of virtual time.
	Delay        float64
	DelaySeconds float64
	// Reorder is the probability that a frame is held at the sender's NIC
	// and transmitted after the next frame to the same destination (an
	// adjacent swap).  The receiver restores order by sequence number.
	Reorder float64

	// Crashes schedules processor failures at virtual times.
	Crashes []Crash
	// Stragglers schedules processor slowdowns at virtual times.
	Stragglers []Straggler

	// Reliable configures the retry protocol of the reliable layer.
	Reliable ReliableConfig
}

// Crash schedules one processor failure: the processor panics with a
// *CrashError at the first charging-operation boundary where its virtual
// clock has reached At.  Crash entries are one-shot: a respawned processor
// does not re-fire the same entry.
type Crash struct {
	Rank int
	At   float64
	// Permanent marks the rank as unrecoverable: instead of respawning it,
	// a fault-tolerant caller degrades to the surviving ranks.
	Permanent bool
}

// Straggler slows a processor down: from virtual time At on, every Compute
// charge on Rank is multiplied by Factor (>= 1).
type Straggler struct {
	Rank   int
	At     float64
	Factor float64
}

// ReliableConfig tunes the receiver-side retry protocol.
type ReliableConfig struct {
	// MaxRetries bounds the retransmission attempts per frame before the
	// peer is declared dead.  0 means the default (4).
	MaxRetries int
	// BaseBackoff is the first retry's wait in virtual seconds; attempt n
	// waits BaseBackoff * 2^(n-1).  0 means the default (64 x Latency, or
	// 64 µs on a zero-latency machine).
	BaseBackoff float64
}

// withDefaults returns the config with zero fields replaced by defaults.
func (rc ReliableConfig) withDefaults(m Machine) ReliableConfig {
	if rc.MaxRetries == 0 {
		rc.MaxRetries = 4
	}
	if rc.BaseBackoff == 0 {
		rc.BaseBackoff = 64 * m.Latency
		if rc.BaseBackoff == 0 {
			rc.BaseBackoff = 64e-6
		}
	}
	return rc
}

// detectCost is the virtual time a receiver spends before declaring a peer
// dead: the full exhausted backoff schedule plus one NACK startup per
// attempt.
func (rc ReliableConfig) detectCost(m Machine) float64 {
	backoff := 0.0
	step := rc.BaseBackoff
	for i := 0; i < rc.MaxRetries; i++ {
		backoff += step
		step *= 2
	}
	return backoff + float64(rc.MaxRetries)*m.Latency
}

// faultKind namespaces the hash-based decisions so drop/dup/delay/reorder
// rolls for the same frame are independent.
type faultKind uint64

const (
	kDrop faultKind = iota + 1
	kDup
	kDelay
	kReorder
)

// mix64 is the splitmix64 finalizer: a strong, allocation-free 64-bit hash.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// roll returns a uniform float64 in [0, 1) that depends only on the plan
// seed and the event coordinates.
func (fp *FaultPlan) roll(kind faultKind, from, to int, seq int64, attempt int) float64 {
	h := mix64(fp.Seed ^ uint64(kind)*0x9e3779b97f4a7c15)
	h = mix64(h ^ uint64(from)<<32 ^ uint64(to))
	h = mix64(h ^ uint64(seq)<<8 ^ uint64(attempt))
	return float64(h>>11) / (1 << 53)
}

// validate rejects plans whose parameters are out of range.  Each check is
// written to fail on NaN, which every comparison is false for.
func (fp *FaultPlan) validate(p int) error {
	for _, rate := range []struct {
		name string
		v    float64
	}{{"Drop", fp.Drop}, {"Dup", fp.Dup}, {"Delay", fp.Delay}, {"Reorder", fp.Reorder}} {
		if !(rate.v >= 0 && rate.v < 1) {
			return fmt.Errorf("cluster: fault plan %s rate %v outside [0, 1)", rate.name, rate.v)
		}
	}
	if fp.Delay > 0 && !(fp.DelaySeconds >= 0) {
		return fmt.Errorf("cluster: fault plan DelaySeconds %v not a non-negative number", fp.DelaySeconds)
	}
	for _, cr := range fp.Crashes {
		if cr.Rank < 0 || cr.Rank >= p {
			return fmt.Errorf("cluster: crash rank %d outside [0, %d)", cr.Rank, p)
		}
		if !(cr.At >= 0) {
			return fmt.Errorf("cluster: crash time %v not a non-negative number", cr.At)
		}
	}
	for _, st := range fp.Stragglers {
		if st.Rank < 0 || st.Rank >= p {
			return fmt.Errorf("cluster: straggler rank %d outside [0, %d)", st.Rank, p)
		}
		if !(st.Factor >= 1) {
			return fmt.Errorf("cluster: straggler factor %v not a number of at least 1", st.Factor)
		}
	}
	return nil
}

// faultState is the cluster-wide installed plan.
type faultState struct {
	plan FaultPlan // Reliable already defaulted
}

// InstallFaults installs a fault plan on the cluster.  Passing nil
// uninstalls faults (sends and receives go straight through the mailboxes).
// Install before Run; a plan installed mid-run is a data race.
func (c *Cluster) InstallFaults(plan *FaultPlan) error {
	if plan == nil {
		c.faults = nil
		for _, p := range c.procs {
			p.clearFaultSchedule()
		}
		return nil
	}
	if err := plan.validate(c.P()); err != nil {
		return err
	}
	fp := *plan
	fp.Reliable = fp.Reliable.withDefaults(c.machine)
	c.faults = &faultState{plan: fp}
	for _, p := range c.procs {
		p.clearFaultSchedule()
	}
	for _, cr := range fp.Crashes {
		pr := c.procs[cr.Rank]
		pr.crashes = append(pr.crashes, cr)
	}
	for _, st := range fp.Stragglers {
		pr := c.procs[st.Rank]
		pr.stragglers = append(pr.stragglers, st)
	}
	for _, p := range c.procs {
		sort.SliceStable(p.crashes, func(i, j int) bool { return p.crashes[i].At < p.crashes[j].At })
		sort.SliceStable(p.stragglers, func(i, j int) bool { return p.stragglers[i].At < p.stragglers[j].At })
	}
	return nil
}

// clearFaultSchedule drops the per-processor fault schedule and its
// progress.
func (p *Proc) clearFaultSchedule() {
	p.crashes = nil
	p.crashIdx = 0
	p.stragglers = nil
}

// checkCrash fires the next scheduled crash for this processor once its
// virtual clock has reached the crash time.  It is called at
// charging-operation boundaries, so a crash takes effect at the first
// operation that crosses At.  Entries are one-shot: crashIdx survives
// ResetComm, so a respawned processor does not crash again on the same
// entry.
func (p *Proc) checkCrash() {
	for p.crashIdx < len(p.crashes) {
		e := p.crashes[p.crashIdx]
		if p.clock < e.At {
			return
		}
		p.crashIdx++
		panic(&CrashError{Rank: p.id, At: e.At, Clock: p.clock, Permanent: e.Permanent})
	}
}

// straggleFactor returns the Compute multiplier in effect at the current
// clock: the latest straggler entry whose At has passed, or 1.
func (p *Proc) straggleFactor() float64 {
	f := 1.0
	for _, st := range p.stragglers {
		if p.clock >= st.At {
			f = st.Factor
		}
	}
	return f
}

// CrashError is the panic value of a scheduled processor crash.  Cluster.Run
// converts it into a per-rank error; errors.As recovers it for fault-
// tolerant callers.
type CrashError struct {
	Rank int
	// At is the scheduled crash time; Clock is the virtual time of the
	// operation boundary where it fired (>= At).
	At        float64
	Clock     float64
	Permanent bool
}

func (e *CrashError) Error() string {
	kind := "transient"
	if e.Permanent {
		kind = "permanent"
	}
	return fmt.Sprintf("cluster: proc %d crashed (%s, scheduled %.6fs, fired %.6fs)", e.Rank, kind, e.At, e.Clock)
}

// DeadRankError reports that a receive could not complete because the peer
// is dead: either its goroutine terminated (crash, error, or early return
// with messages still expected) or the retry protocol exhausted its
// attempts.  Cluster.Run surfaces it per-rank; errors.As recovers it.
type DeadRankError struct {
	// Rank is the receiver that detected the death; Peer the rank declared
	// dead.
	Rank, Peer int
	Tag        string
	// Clock is the receiver's virtual time after charging the detection.
	Clock float64
	// RetriesExhausted distinguishes a declared death (drop-rate retry
	// exhaustion on a live peer) from an observed termination.
	RetriesExhausted bool
}

func (e *DeadRankError) Error() string {
	how := "terminated"
	if e.RetriesExhausted {
		how = "declared dead after retry exhaustion"
	}
	return fmt.Sprintf("cluster: proc %d receiving %q from proc %d: peer %s (at %.6fs)", e.Rank, e.Tag, e.Peer, how, e.Clock)
}

// TagMismatchError reports a protocol bug: the received message's tag does
// not match the expected one.  Cluster.Run surfaces it per-rank instead of
// crashing the process.
type TagMismatchError struct {
	Rank, From int
	Want, Got  string
}

func (e *TagMismatchError) Error() string {
	return fmt.Sprintf("cluster: proc %d expected tag %q from %d, got %q", e.Rank, e.Want, e.From, e.Got)
}
