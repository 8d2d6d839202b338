package cluster

import (
	"errors"
	"fmt"
	"sync"

	"parapriori/internal/obsv"
)

// Cluster is an emulated P-processor message-passing machine.
type Cluster struct {
	machine Machine
	procs   []*Proc
	// boxes[to][from] is the FIFO mailbox carrying messages from processor
	// `from` to processor `to`.
	boxes [][]*mailbox

	// faults is the installed fault plan, nil when the machine is reliable.
	faults *faultState

	// termMu guards term, the cross-goroutine record of terminated
	// processors (receivers consult it to charge dead-peer detection).
	termMu sync.Mutex
	term   []termInfo
}

// termInfo records one processor's termination within the current Run.
type termInfo struct {
	done  bool
	clock float64
}

// New builds a cluster of p processors with the given cost model.
func New(p int, m Machine) (*Cluster, error) {
	if p < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 processor, got %d", p)
	}
	c := &Cluster{machine: m}
	c.procs = make([]*Proc, p)
	c.boxes = make([][]*mailbox, p)
	c.term = make([]termInfo, p)
	for i := range c.procs {
		c.procs[i] = &Proc{id: i, c: c}
		c.boxes[i] = make([]*mailbox, p)
		for j := range c.boxes[i] {
			c.boxes[i][j] = newMailbox()
		}
	}
	return c, nil
}

// P returns the number of processors.
func (c *Cluster) P() int { return len(c.procs) }

// Proc returns processor i.
func (c *Cluster) Proc(i int) *Proc { return c.procs[i] }

// SetRecorder installs the span sink for subsequent Runs: every processor
// records each compute, I/O, send, idle, retry and drop slice of its virtual
// timeline into rec as the slice completes, from its own goroutine.  Nil —
// the state of a new or Reset cluster — turns recording off.
func (c *Cluster) SetRecorder(rec obsv.Recorder) {
	for _, p := range c.procs {
		p.rec = rec
	}
}

// Run executes fn once per processor, each on its own goroutine (the SPMD
// model of MPI programs), and waits for all of them.  It returns the join
// of the per-processor errors.  Virtual clocks and statistics accumulate
// across successive Runs on the same cluster; use Reset between independent
// experiments.
//
// When a processor's body terminates — normal return, error, or panic
// (including a scheduled *CrashError) — its outgoing mailboxes are marked
// done: peers first drain any queued messages, then receive a
// *DeadRankError instead of blocking forever.  Run therefore always
// returns, with each failed rank's error in the join; panic values that
// are errors are wrapped so errors.As sees the concrete type.
func (c *Cluster) Run(fn func(p *Proc) error) error {
	// A previous Run's termination flags would make this one's receivers
	// see their peers as already dead; clear them (queues and clocks still
	// accumulate across Runs).
	c.termMu.Lock()
	for i := range c.term {
		c.term[i] = termInfo{}
	}
	c.termMu.Unlock()
	for i, p := range c.procs {
		p.crashPending = nil
		for j := range c.boxes[i] {
			c.boxes[i][j].clearDone()
		}
	}
	errs := make([]error, len(c.procs))
	var wg sync.WaitGroup
	for i, p := range c.procs {
		wg.Add(1)
		go func(i int, p *Proc) {
			defer wg.Done()
			defer c.markDone(p)
			defer func() {
				if r := recover(); r != nil {
					switch v := r.(type) {
					case error:
						errs[i] = fmt.Errorf("cluster: proc %d: %w", i, v)
						var ce *CrashError
						if errors.As(v, &ce) {
							p.crashPending = ce
						}
					default:
						errs[i] = fmt.Errorf("cluster: proc %d panicked: %v", i, r)
					}
				}
			}()
			if err := fn(p); err != nil {
				errs[i] = fmt.Errorf("cluster: proc %d: %w", i, err)
				return
			}
			p.flushAllHeld()
		}(i, p)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// markDone records the processor's termination and wakes every peer blocked
// on one of its mailboxes.
func (c *Cluster) markDone(p *Proc) {
	c.termMu.Lock()
	c.term[p.id] = termInfo{done: true, clock: p.clock}
	c.termMu.Unlock()
	for to := range c.boxes {
		if to == p.id {
			continue
		}
		c.boxes[to][p.id].markDone()
	}
}

// termClockOf returns the virtual clock at which the rank terminated, or 0
// if it has not.
func (c *Cluster) termClockOf(rank int) float64 {
	c.termMu.Lock()
	defer c.termMu.Unlock()
	return c.term[rank].clock
}

// ResetComm clears all in-flight communication state between Runs of one
// logical computation: queued and held messages, termination flags, and
// reliable-layer sequence state.  Clocks, statistics, the recorder, and fault
// schedules (including fired crash entries) are preserved — this is the
// restart primitive for checkpoint recovery, not a full Reset.
//
// Each mailbox's generation is bumped and its waiters woken, so a receiver
// goroutine orphaned by a previous faulted Run gives up instead of stealing
// the next Run's messages.
func (c *Cluster) ResetComm() {
	c.termMu.Lock()
	for i := range c.term {
		c.term[i] = termInfo{}
	}
	c.termMu.Unlock()
	for i, p := range c.procs {
		p.crashPending = nil
		p.sendSeq = nil
		p.heldOut = nil
		p.recvExpect = nil
		p.recvBuf = nil
		for j := range c.boxes[i] {
			c.boxes[i][j].reset()
		}
	}
}

// Reset returns the cluster to its initial state for an independent
// experiment: clocks, port times, statistics, the installed recorder,
// communication state (including pending mailbox waiters from a faulted
// run, which are cancelled via the mailbox generation), and any installed
// fault plan are all cleared.
func (c *Cluster) Reset() {
	c.ResetComm()
	c.faults = nil
	for _, p := range c.procs {
		p.clock = 0
		p.portFree = 0
		p.stats = Stats{}
		p.rec = nil
		p.clearFaultSchedule()
	}
}

// MaxClock returns the response time of the run so far: the maximum virtual
// clock over all processors.
func (c *Cluster) MaxClock() float64 {
	max := 0.0
	for _, p := range c.procs {
		if p.clock > max {
			max = p.clock
		}
	}
	return max
}

// Clocks returns every processor's virtual clock.
func (c *Cluster) Clocks() []float64 {
	out := make([]float64, len(c.procs))
	for i, p := range c.procs {
		out[i] = p.clock
	}
	return out
}

// TotalStats sums the per-processor statistics.
func (c *Cluster) TotalStats() Stats {
	var total Stats
	for _, p := range c.procs {
		total.Add(p.Stats())
	}
	return total
}

// RingDistance returns the hop count between ranks a and b on a
// bidirectional ring of size p — the congestion factor DD's unstructured
// messages carry.
func RingDistance(a, b, p int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if p-d < d {
		d = p - d
	}
	return d
}
