package distserve

import (
	"context"
	"sync/atomic"
	"time"
)

// HealthState is the failure detector's view of one node.
//
// Transitions are driven by call outcomes — every query leg and every probe
// is evidence.  One failure moves Up → Suspect; failThreshold consecutive
// failures move Suspect → Down; any success moves the node straight back to
// Up and resets the failure count.  Suspect nodes still receive queries
// (one bad response must not shed load from a healthy node); Down nodes are
// skipped by replica selection and only talked to by the background probe —
// or by the query path as a last resort, when every replica of a shard is
// Down and the alternative is answering Partial without even trying.
type HealthState int32

const (
	// HealthUp — the node's last call succeeded.
	HealthUp HealthState = iota
	// HealthSuspect — at least one consecutive failure, below threshold.
	HealthSuspect
	// HealthDown — failThreshold consecutive failures; excluded from
	// replica selection until a probe or a desperation call succeeds.
	HealthDown
)

// String implements fmt.Stringer.
func (s HealthState) String() string {
	switch s {
	case HealthUp:
		return "up"
	case HealthSuspect:
		return "suspect"
	case HealthDown:
		return "down"
	}
	return "unknown"
}

// nodeHealth is the per-node detector state.  Everything is atomic: the
// query path reads and writes it without taking the router lock.
type nodeHealth struct {
	state       atomic.Int32 // HealthState
	fails       atomic.Int32 // consecutive failures
	outstanding atomic.Int64 // in-flight calls, the choice-of-two load signal
	probeWait   atomic.Int32 // prober ticks left to skip (exponential backoff)
	probeGap    atomic.Int32 // current backoff gap in ticks (doubles per failed probe)
}

// observeSuccess records a successful call: the node is Up, whatever it was.
func (h *nodeHealth) observeSuccess() {
	h.fails.Store(0)
	h.state.Store(int32(HealthUp))
	h.probeGap.Store(0)
	h.probeWait.Store(0)
}

// observeFailure records a failed call and advances Up → Suspect → Down.
func (h *nodeHealth) observeFailure() {
	if h.fails.Add(1) >= failThreshold {
		h.state.Store(int32(HealthDown))
	} else {
		h.state.Store(int32(HealthSuspect))
	}
}

// State returns the current detector state.
func (h *nodeHealth) State() HealthState { return HealthState(h.state.Load()) }

// Health reports the failure detector's state for every member node.
func (r *Router) Health() map[string]HealthState {
	out := make(map[string]HealthState, len(r.health))
	for o, h := range r.health {
		out[r.ids[o]] = h.State()
	}
	return out
}

// pick2 is the load-aware choice-of-two: given a shard's live replicas in
// HRW order, as node ordinals, sample two candidates with the router's
// seeded sequence and take the one with fewer outstanding calls (ties break
// toward the earlier HRW rank, keeping the choice deterministic when the
// fleet is idle).
func (r *Router) pick2(cands []int) int {
	if len(cands) == 1 {
		return cands[0]
	}
	seq := r.pickSeq.Add(1)
	h := splitmix64(r.opt.Seed ^ seq)
	i := int(h % uint64(len(cands)))
	j := int((h >> 32) % uint64(len(cands)))
	if i == j {
		j = (j + 1) % len(cands)
	}
	if i > j {
		i, j = j, i
	}
	a, b := r.health[cands[i]], r.health[cands[j]]
	if b.outstanding.Load() < a.outstanding.Load() {
		return cands[j]
	}
	return cands[i]
}

// ProbeOnce synchronously probes every non-Up node (ignoring the prober's
// backoff schedule) and returns how many probes succeeded.  Tests and
// operators use it to drive recovery deterministically; the background
// prober calls the same per-node probe on its own clock.
func (r *Router) ProbeOnce() int {
	ok := 0
	for _, t := range r.probeTargets(false) {
		if r.probe(t.c, t.h) {
			ok++
		}
	}
	return ok
}

// probeTarget is one node a probe round is about to call.
type probeTarget struct {
	c Client
	h *nodeHealth
}

// probeTargets lists the non-Up nodes in node-ID order.  With backoff set it
// honours each node's backoff schedule: a node still waiting out its gap has
// one tick taken off the wait and sits this round out.
func (r *Router) probeTargets(backoff bool) []probeTarget {
	var targets []probeTarget
	for o, h := range r.health { // node-ID order
		if h.State() == HealthUp {
			continue
		}
		if backoff && h.probeWait.Load() > 0 {
			h.probeWait.Add(-1)
			continue
		}
		targets = append(targets, probeTarget{r.clients[o], h})
	}
	return targets
}

// probe issues one health probe (a Metrics call under the request budget)
// and feeds the outcome to the detector.  Returns true on success.
func (r *Router) probe(c Client, h *nodeHealth) bool {
	r.met.probes.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), r.opt.RequestTimeout)
	defer cancel()
	if _, err := c.Metrics(ctx); err != nil {
		h.observeFailure()
		return false
	}
	h.observeSuccess()
	return true
}

// StartProber launches the background failure-detector probe loop: every
// probeInterval tick it probes the non-Up nodes whose backoff has elapsed.
// A node that keeps failing is probed at exponentially growing gaps (1, 2,
// 4, … ticks, capped at 64) so a long outage costs a trickle of probes, not
// a stream — the exponential backoff lives here on the probe path, never on
// the query path.  Idempotent; StopProber (or Cluster.Close) stops it.
func (r *Router) StartProber() {
	r.probeMu.Lock()
	defer r.probeMu.Unlock()
	if r.probeStop != nil {
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	r.probeStop, r.probeDone = stop, done
	go func() { //checkinv:allow goroleak the prober is joined by StopProber via probeDone; real-OS serving territory
		defer close(done)
		t := time.NewTicker(probeInterval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				r.probeTick()
			}
		}
	}()
}

// probeTick runs one scheduled probe round, honoring per-node backoff.
func (r *Router) probeTick() {
	for _, t := range r.probeTargets(true) {
		if !r.probe(t.c, t.h) {
			gap := t.h.probeGap.Load()
			if gap == 0 {
				gap = 1
			} else if gap < 64 {
				gap *= 2
			}
			t.h.probeGap.Store(gap)
			t.h.probeWait.Store(gap)
		}
	}
}

// StopProber stops the background probe loop and waits for it to exit.
// Safe to call when the prober was never started.
func (r *Router) StopProber() {
	r.probeMu.Lock()
	stop, done := r.probeStop, r.probeDone
	r.probeStop, r.probeDone = nil, nil
	r.probeMu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}
