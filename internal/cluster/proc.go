package cluster

import (
	"fmt"

	"parapriori/internal/obsv"
)

// Stats is the per-processor accounting of where virtual time went.  The
// paper reports exactly these decompositions ("for 64 processors the load
// imbalance overhead is 49.6%", "the cost of data movement is 6.4%").
type Stats struct {
	ComputeTime float64
	IOTime      float64
	IdleTime    float64
	SendTime    float64
	// RetryTime is the virtual time spent in the reliable layer's fault
	// handling: corrupted-frame port occupancy, retransmission backoff, and
	// dead-peer detection.  Zero on a fault-free run.
	RetryTime float64

	BytesSent        int64
	BytesReceived    int64
	MessagesSent     int64
	MessagesReceived int64
	// MessagesRetried counts retransmission attempts, MessagesDropped the
	// corrupted frames that triggered them, and DupsSuppressed the
	// duplicate frames discarded by sequence number.
	MessagesRetried int64
	MessagesDropped int64
	DupsSuppressed  int64

	// Phases breaks ComputeTime+IOTime down by algorithm phase
	// ("subset", "tree build", "reduction", ...).
	Phases map[string]float64
}

// Add accumulates other into s (phases included).
func (s *Stats) Add(other Stats) {
	s.ComputeTime += other.ComputeTime
	s.IOTime += other.IOTime
	s.IdleTime += other.IdleTime
	s.SendTime += other.SendTime
	s.RetryTime += other.RetryTime
	s.BytesSent += other.BytesSent
	s.BytesReceived += other.BytesReceived
	s.MessagesSent += other.MessagesSent
	s.MessagesReceived += other.MessagesReceived
	s.MessagesRetried += other.MessagesRetried
	s.MessagesDropped += other.MessagesDropped
	s.DupsSuppressed += other.DupsSuppressed
	for k, v := range other.Phases {
		if s.Phases == nil {
			s.Phases = make(map[string]float64)
		}
		s.Phases[k] += v
	}
}

// Proc is one emulated processor.  All methods must be called from the
// single goroutine executing the processor's program; only the mailboxes
// are shared between goroutines.
type Proc struct {
	id       int
	c        *Cluster
	clock    float64
	portFree float64
	stats    Stats
	// rec, when non-nil, receives every slice of the processor's timeline
	// as a leaf span the moment the slice completes (Cluster.SetRecorder).
	rec obsv.Recorder

	// Reliable-layer state, all owned by the processor's goroutine.
	// sendSeq[to] is the next outgoing sequence number per destination;
	// heldOut[to] a frame the fault plan is holding for reordering;
	// recvExpect[from] the next expected incoming sequence number; and
	// recvBuf[from] the early-arrival buffer, keyed by sequence number
	// (keyed access only — never ranged, map order must not matter).
	sendSeq    []int64
	heldOut    []*Message
	recvExpect []int64
	recvBuf    []map[int64]Message

	// Fault schedule (from the installed plan) and its progress.
	crashes    []Crash
	crashIdx   int
	stragglers []Straggler
	// crashPending is set by Run's recover handler before the termination
	// broadcast so markDone records the crash.
	crashPending *CrashError
}

// ID returns the processor's global rank in [0, P).
func (p *Proc) ID() int { return p.id }

// P returns the number of processors in the cluster.
func (p *Proc) P() int { return len(p.c.procs) }

// Machine returns the cluster's cost model.
func (p *Proc) Machine() Machine { return p.c.machine }

// Clock returns the processor's current virtual time in seconds.
func (p *Proc) Clock() float64 { return p.clock }

// Stats returns a copy of the processor's accounting so far.
func (p *Proc) Stats() Stats {
	s := p.stats
	s.Phases = make(map[string]float64, len(p.stats.Phases))
	for k, v := range p.stats.Phases {
		s.Phases[k] = v
	}
	return s
}

// Compute advances the virtual clock by the given number of seconds of
// local computation, attributed to the named phase.  An active straggler
// entry from the fault plan multiplies the charge.
func (p *Proc) Compute(seconds float64, phase string) {
	if seconds <= 0 {
		return
	}
	if f := p.straggleFactor(); f > 1 {
		seconds *= f
	}
	p.clock += seconds
	p.stats.ComputeTime += seconds
	p.addPhase(phase, seconds)
	p.record(obsv.CatCompute, phase, p.clock-seconds, p.clock, -1, 0)
	p.checkCrash()
}

// ReadIO charges the time to read the given number of bytes from disk.
// With IOBandwidth == 0 (the T3E's in-memory buffer) it is free.
func (p *Proc) ReadIO(bytes int64, phase string) {
	if bytes <= 0 || p.c.machine.IOBandwidth <= 0 {
		return
	}
	seconds := float64(bytes) / p.c.machine.IOBandwidth
	p.clock += seconds
	p.stats.IOTime += seconds
	p.addPhase(phase, seconds)
	p.record(obsv.CatIO, phase, p.clock-seconds, p.clock, -1, int(bytes))
	p.checkCrash()
}

// record emits one slice of the processor's virtual timeline as a leaf span
// on its rank: the slice kind is the span's category, the phase label or
// message tag its name (the category when unlabelled), and the counterpart
// rank and message size become "peer"/"bytes" attributes when set (peer < 0
// and bytes == 0 mean none).  Zero-length slices are skipped.  With no
// recorder installed — the default: a large run completes a slice per
// message and per compute charge — it costs one branch.
func (p *Proc) record(cat, name string, start, end float64, peer, bytes int) {
	if p.rec == nil || end <= start {
		return
	}
	s := obsv.Span{Name: name, Cat: cat, Rank: p.id, Start: start, End: end}
	if s.Name == "" {
		s.Name = cat
	}
	if peer >= 0 {
		s.Args = append(s.Args, obsv.Int("peer", int64(peer)))
	}
	if bytes > 0 {
		s.Args = append(s.Args, obsv.Int("bytes", int64(bytes)))
	}
	p.rec.Record(s)
}

func (p *Proc) addPhase(phase string, seconds float64) {
	if phase == "" {
		return
	}
	if p.stats.Phases == nil {
		p.stats.Phases = make(map[string]float64)
	}
	p.stats.Phases[phase] += seconds
}

// Send posts an asynchronous point-to-point message as part of a
// *structured* communication pattern (congestion factor 1): neighbor
// shifts, tree exchanges, ring all-gathers.
func (p *Proc) Send(to int, tag string, payload any, bytes int) {
	p.post(p.prepSend(to, tag, payload, bytes, 1))
}

// SendContended posts a message belonging to an *unstructured* pattern.
// The congestion factor — for DD's all-to-all page scatter, the ring
// distance between sender and receiver — multiplies the transfer occupancy
// at the receiver, modeling the shared-link contention of Section III-B.
func (p *Proc) SendContended(to int, tag string, payload any, bytes int, congestion float64) {
	p.post(p.prepSend(to, tag, payload, bytes, congestion))
}

// SendBlocking posts a message through a *synchronous* send: the sender's
// CPU is busy for the whole congested transfer, not just the startup.
// This is the communication regime of the original DD algorithm — "if the
// communication buffer of any receiving processor is full and the outgoing
// communication buffers are full, then the send operation is blocked"
// (Section III-B) — and exactly what IDD's pipelined asynchronous ring
// replaces.
func (p *Proc) SendBlocking(to int, tag string, payload any, bytes int, congestion float64) {
	t := p.c.machine.transferTime(bytes, congestion)
	p.clock += t
	p.stats.SendTime += t
	p.record(obsv.CatSend, tag, p.clock-t, p.clock, to, bytes)
	p.post(p.prepSend(to, tag, payload, bytes, congestion))
}

// post puts a charged frame on the wire: straight into the destination's
// mailbox on a reliable machine, sequenced and through the plan's
// drop/delay/dup/reorder decisions when one is installed (reliable.go).
func (p *Proc) post(msg Message) {
	if fs := p.c.faults; fs != nil {
		p.transmitFaulty(fs, msg)
		return
	}
	p.c.boxes[msg.To][p.id].put(msg)
}

// prepSend validates the destination, charges the sender's side of the
// transfer, and returns the constructed message (not yet delivered).
func (p *Proc) prepSend(to int, tag string, payload any, bytes int, congestion float64) Message {
	if to < 0 || to >= p.P() {
		panic(&SendError{Rank: p.id, To: to, Tag: tag, Self: false})
	}
	if to == p.id {
		panic(&SendError{Rank: p.id, To: to, Tag: tag, Self: true})
	}
	p.checkCrash()
	m := p.c.machine
	sendStart := p.clock
	// The sender's CPU is busy for the message startup.
	p.clock += m.Latency
	p.stats.SendTime += m.Latency
	msg := Message{
		From: p.id, To: to, Tag: tag, Payload: payload, Bytes: bytes,
		readyAt: p.clock, congestion: congestion,
	}
	if !m.Overlap {
		// Without overlap hardware the sender also drives the transfer.
		t := m.transferTime(bytes, congestion)
		p.clock += t
		p.stats.SendTime += t
	}
	p.stats.BytesSent += int64(bytes)
	p.stats.MessagesSent++
	p.record(obsv.CatSend, tag, sendStart, p.clock, to, bytes)
	return msg
}

// Recv receives the next message from the given sender, blocking the
// goroutine until one is available, and advances virtual time to the
// transfer's completion.  If the sender terminates (return, error, or
// crash) with no message queued, Recv panics a *DeadRankError, which
// Cluster.Run surfaces as that rank's error — a protocol imbalance or a
// peer failure no longer deadlocks the run.  A tag mismatch likewise panics
// a *TagMismatchError.
//
// With Overlap hardware, time already spent computing since the message
// became available overlaps the transfer (the MPI_Irecv / compute /
// MPI_Waitall pattern of Figure 6).  The receive port serializes
// concurrent arrivals either way.
//
// Under an installed fault plan the receive is the sequenced one of
// reliable.go: the next in-order frame from the sender, whatever the plan
// did to it on the way.
func (p *Proc) Recv(from int, tag string) Message {
	msg := p.recv(from, tag)
	if msg.Tag != tag {
		panic(&TagMismatchError{Rank: p.id, From: from, Want: tag, Got: msg.Tag})
	}
	return msg
}

// RecvAny receives the next message from the given sender whatever its tag.
// For protocols that multiplex several message kinds on one stream (HPA's
// candidate pages terminated by a sentinel); the caller dispatches on
// Message.Tag itself.  Like Recv it panics a *DeadRankError when the sender
// terminated with nothing queued.
func (p *Proc) RecvAny(from int) Message { return p.recv(from, "<any>") }

// recv is the one receive: tag only names the wait in a *DeadRankError.
func (p *Proc) recv(from int, tag string) Message {
	if fs := p.c.faults; fs != nil {
		return p.recvSequenced(fs, from, tag)
	}
	msg, ok := p.c.boxes[p.id][from].takeOrDone()
	if !ok {
		panic(&DeadRankError{Rank: p.id, Peer: from, Tag: tag, Clock: p.clock})
	}
	p.completeRecv(msg)
	return msg
}

func (p *Proc) completeRecv(msg Message) {
	m := p.c.machine
	t := m.transferTime(msg.Bytes, msg.congestion)
	before := p.clock
	if m.Overlap {
		start := msg.readyAt
		if p.portFree > start {
			start = p.portFree
		}
		completion := start + t
		p.portFree = completion
		if completion > p.clock {
			p.stats.IdleTime += completion - p.clock
			p.record(obsv.CatIdle, msg.Tag, p.clock, completion, msg.From, msg.Bytes)
			p.clock = completion
		}
	} else {
		start := p.clock
		if msg.readyAt > start {
			start = msg.readyAt
		}
		if p.portFree > start {
			start = p.portFree
		}
		if start > before {
			p.stats.IdleTime += start - before
			p.record(obsv.CatIdle, msg.Tag, before, start, msg.From, msg.Bytes)
		}
		completion := start + t
		p.portFree = completion
		p.clock = completion
	}
	p.stats.BytesReceived += int64(msg.Bytes)
	p.stats.MessagesReceived++
	p.checkCrash()
}

// SyncClock advances the processor's clock to at least t, recording the
// difference as idle time.  Collectives use it to model barrier semantics.
func (p *Proc) SyncClock(t float64) {
	if t > p.clock {
		p.stats.IdleTime += t - p.clock
		p.record(obsv.CatIdle, "sync", p.clock, t, -1, 0)
		p.clock = t
	}
	p.checkCrash()
}

// SendError reports a send to an invalid destination (out of range or
// self).  It panics at the call site — a structural bug in the calling
// algorithm — and Cluster.Run converts it into that rank's error.
type SendError struct {
	Rank, To int
	Tag      string
	Self     bool
}

func (e *SendError) Error() string {
	if e.Self {
		return fmt.Sprintf("cluster: proc %d sending to itself (tag %q)", e.Rank, e.Tag)
	}
	return fmt.Sprintf("cluster: proc %d sending to invalid rank %d", e.Rank, e.To)
}
