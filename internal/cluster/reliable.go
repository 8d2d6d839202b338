package cluster

// The reliable messaging layer: what Send*/Recv* do under an installed
// fault plan.  Reliability belongs to the machine, not to the call site —
// there is one send family and one receive, and a plan puts sequence
// numbers, duplicate suppression, reorder recovery and a receiver-side
// retry protocol beneath every one of them, all charged to the virtual
// clock.  With no plan installed none of this file runs: a frame goes
// straight into the mailbox and comes straight out.
//
// The retry protocol is NIC-level, driven entirely by the receiver: a
// dropped frame arrives as a tombstone (the corrupted frame still occupies
// the receive port), the receiver charges a NACK startup plus an
// exponential backoff wait per attempt, and re-rolls the plan's drop
// decision for the retransmission.  Modeling the protocol on the receiver
// keeps every charge on one goroutine's own state — no cross-processor
// writes, no scheduling sensitivity — which is what makes faulty runs
// bit-reproducible.  Acknowledgements are modeled the same way: one
// message-startup charge on the receiver per accepted frame, no ack frame
// enqueued.

import "parapriori/internal/obsv"

func (p *Proc) initReliableState() {
	n := p.P()
	p.sendSeq = make([]int64, n)
	p.heldOut = make([]*Message, n)
	p.recvExpect = make([]int64, n)
	p.recvBuf = make([]map[int64]Message, n)
}

// transmitFaulty gives the frame its per-destination sequence number
// (starting at 1), runs it through the plan's drop/delay/dup/reorder
// decisions and delivers it (or holds it for reordering).  The congestion
// factor stays on the frame, so a contended or blocking send is retried and
// discarded at its own occupancy.
func (p *Proc) transmitFaulty(fs *faultState, msg Message) {
	plan := &fs.plan
	to := msg.To
	if p.sendSeq == nil {
		p.initReliableState()
	}
	p.sendSeq[to]++
	msg.seq = p.sendSeq[to]
	if plan.Delay > 0 && plan.roll(kDelay, msg.From, to, msg.seq, 0) < plan.Delay {
		msg.readyAt += plan.DelaySeconds
	}
	if plan.Drop > 0 && plan.roll(kDrop, msg.From, to, msg.seq, 0) < plan.Drop {
		msg.tomb = true
	}
	dup := plan.Dup > 0 && plan.roll(kDup, msg.From, to, msg.seq, 0) < plan.Dup
	box := p.c.boxes[to][p.id]
	if held := p.heldOut[to]; held != nil {
		// A frame to this destination is being held: the new frame goes out
		// first, then the held one — an adjacent swap in arrival order.
		p.heldOut[to] = nil
		box.put(msg)
		if dup {
			box.put(msg)
		}
		box.put(*held)
		return
	}
	if plan.Reorder > 0 && plan.roll(kReorder, msg.From, to, msg.seq, 0) < plan.Reorder {
		p.heldOut[to] = &msg
		return
	}
	box.put(msg)
	if dup {
		box.put(msg)
	}
}

// flushAllHeld transmits every frame the reorder fault is holding.  Flush
// points are sender-program-order — before any receive and at body
// termination — so delivery order is a pure function of the program, not
// of goroutine scheduling.
func (p *Proc) flushAllHeld() {
	if p.heldOut == nil {
		return
	}
	for to, held := range p.heldOut {
		if held != nil {
			p.heldOut[to] = nil
			p.c.boxes[to][p.id].put(*held)
		}
	}
}

// recvSequenced receives the next in-order frame from the given sender,
// running the retry protocol on corrupted frames, suppressing duplicates,
// and buffering early arrivals.
func (p *Proc) recvSequenced(fs *faultState, from int, tag string) Message {
	p.flushAllHeld()
	if p.recvExpect == nil {
		p.initReliableState()
	}
	want := p.recvExpect[from] + 1
	if msg, ok := p.recvBuf[from][want]; ok {
		// Arrived early, already charged when buffered.
		delete(p.recvBuf[from], want)
		p.recvExpect[from] = want
		return msg
	}
	box := p.c.boxes[p.id][from]
	for {
		msg, ok := box.takeOrDone()
		if !ok {
			p.chargeDeadDetect(fs, from)
			panic(&DeadRankError{Rank: p.id, Peer: from, Tag: tag, Clock: p.clock})
		}
		if msg.seq < want {
			// Stale frame (duplicate of an accepted sequence number): the
			// NIC discards it after it occupies the port.
			p.chargeOccupancy(msg)
			p.stats.DupsSuppressed++
			continue
		}
		if msg.tomb {
			recovered, ok := p.retryRecover(fs, msg)
			if !ok {
				panic(&DeadRankError{Rank: p.id, Peer: from, Tag: tag, Clock: p.clock, RetriesExhausted: true})
			}
			msg = recovered
		}
		p.completeRecv(msg)
		p.chargeAck()
		if msg.seq == want {
			p.recvExpect[from] = want
			return msg
		}
		// Early arrival: buffer it (keyed access only) and keep draining.
		if p.recvBuf[from] == nil {
			p.recvBuf[from] = make(map[int64]Message)
		}
		p.recvBuf[from][msg.seq] = msg
	}
}

// retryRecover runs the receiver-side retry protocol on a corrupted frame:
// charge the frame's port occupancy, then per attempt a NACK startup and an
// exponentially growing backoff wait, re-rolling the plan's drop decision
// until a retransmission survives or the attempts are exhausted.
func (p *Proc) retryRecover(fs *faultState, tomb Message) (Message, bool) {
	plan := &fs.plan
	cfg := plan.Reliable
	m := p.c.machine
	p.chargeOccupancy(tomb)
	p.stats.MessagesDropped++
	backoff := cfg.BaseBackoff
	for attempt := 1; attempt <= cfg.MaxRetries; attempt++ {
		// NACK startup on the receiver's NIC.
		p.clock += m.Latency
		p.stats.SendTime += m.Latency
		p.record(obsv.CatSend, "nack", p.clock-m.Latency, p.clock, tomb.From, 0)
		// Wait out the backoff before the retransmission can land.
		p.stats.RetryTime += backoff
		p.record(obsv.CatRetry, tomb.Tag, p.clock, p.clock+backoff, tomb.From, tomb.Bytes)
		p.clock += backoff
		backoff *= 2
		p.stats.MessagesRetried++
		if plan.roll(kDrop, tomb.From, p.id, tomb.seq, attempt) >= plan.Drop {
			msg := tomb
			msg.tomb = false
			msg.readyAt = p.clock
			return msg, true
		}
	}
	return Message{}, false
}

// chargeOccupancy charges the wire time of a frame the NIC discards (a
// tombstone or a suppressed duplicate): the frame occupies the receive
// port like any other arrival, but the wait counts as retry overhead, not
// useful idle-until-data time.
func (p *Proc) chargeOccupancy(msg Message) {
	m := p.c.machine
	t := m.transferTime(msg.Bytes, msg.congestion)
	start := msg.readyAt
	if !m.Overlap && p.clock > start {
		start = p.clock
	}
	if p.portFree > start {
		start = p.portFree
	}
	completion := start + t
	p.portFree = completion
	if completion > p.clock {
		p.stats.RetryTime += completion - p.clock
		p.record(obsv.CatDrop, msg.Tag, p.clock, completion, msg.From, msg.Bytes)
		p.clock = completion
	}
	p.checkCrash()
}

// chargeAck models the acknowledgement of an accepted frame: one message
// startup on the receiver's NIC, no ack frame enqueued.
func (p *Proc) chargeAck() {
	m := p.c.machine
	p.clock += m.Latency
	p.stats.SendTime += m.Latency
	p.record(obsv.CatSend, "ack", p.clock-m.Latency, p.clock, -1, 0)
}

// chargeDeadDetect charges the cost of discovering a terminated peer: the
// receiver catches up to the peer's termination clock (it cannot conclude
// death before the peer died) and burns the full retry schedule.
func (p *Proc) chargeDeadDetect(fs *faultState, from int) {
	termClock := p.c.termClockOf(from)
	if termClock > p.clock {
		p.SyncClock(termClock)
	}
	cost := fs.plan.Reliable.detectCost(p.c.machine)
	p.stats.RetryTime += cost
	p.record(obsv.CatRetry, "detect", p.clock, p.clock+cost, from, 0)
	p.clock += cost
}
