package cluster

import "sync"

// Message is one unit of communication between processors.
type Message struct {
	From    int
	To      int
	Tag     string
	Payload any
	// Bytes is the modeled wire size of the payload.
	Bytes int
	// readyAt is the sender's virtual clock when the message hit the wire.
	readyAt float64
	// congestion is the pattern congestion factor (see package comment).
	congestion float64
	// seq is the reliable layer's per-(sender, receiver) sequence number,
	// starting at 1; 0 on a machine with no fault plan, which never reads it.
	seq int64
	// tomb marks a frame the fault plan corrupted in flight: it arrives so
	// the receiver's NIC detects the loss locally, but the payload only
	// becomes usable after a successful retransmission.
	tomb bool
}

// mailbox is an unbounded FIFO channel between one (sender, receiver) pair.
// Sends never block — the emulated machine posts sends asynchronously and
// the virtual-time model, not channel capacity, decides when transfers
// complete — so communication schedules that would deadlock with bounded
// buffers (DD's unstructured scatter) still make progress.
//
// A mailbox can be marked done when its sender terminates (return, error,
// panic, or scheduled crash).  Queued messages drain first; once the queue
// is empty a done mailbox wakes blocked receivers with ok == false instead
// of leaving them parked forever.  The gen counter invalidates waiters
// across Reset/ResetComm so stray goroutines from an abandoned run cannot
// consume messages of the next one.
type mailbox struct {
	mu    sync.Mutex
	cond  *sync.Cond
	queue []Message
	done  bool
	gen   int
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *mailbox) put(msg Message) {
	m.mu.Lock()
	m.queue = append(m.queue, msg)
	m.cond.Signal()
	m.mu.Unlock()
}

// takeOrDone blocks (the goroutine, not virtual time) until a message is
// present — removing and returning it — or until the sender is done and the
// queue has drained, returning ok == false.  A generation change while
// waiting also returns false: the run this waiter belonged to was reset.
func (m *mailbox) takeOrDone() (Message, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	gen := m.gen
	for len(m.queue) == 0 {
		if m.done || m.gen != gen {
			return Message{}, false
		}
		m.cond.Wait()
	}
	if m.gen != gen {
		return Message{}, false
	}
	msg := m.queue[0]
	m.queue = m.queue[1:]
	return msg, true
}

// markDone flags the sender as terminated and wakes every waiter.
func (m *mailbox) markDone() {
	m.mu.Lock()
	m.done = true
	m.cond.Broadcast()
	m.mu.Unlock()
}

// clearDone reopens a mailbox whose sender terminated in a previous Run.
func (m *mailbox) clearDone() {
	m.mu.Lock()
	m.done = false
	m.mu.Unlock()
}

// reset empties the queue, clears the done flag, and bumps the generation
// so waiters parked on the old run give up.
func (m *mailbox) reset() {
	m.mu.Lock()
	m.queue = nil
	m.done = false
	m.gen++
	m.cond.Broadcast()
	m.mu.Unlock()
}
