package main

import (
	"time"
)

// loadStats is what one load phase observed.
type loadStats struct {
	sent    int
	elapsed time.Duration
	// latUs holds latencies in microseconds: of every request, from the time
	// it was due (open loop), or of the timed requests, from their send
	// (closed loop).
	latUs []float64
	// sliceRates holds the request rate of each slice of a closed loop.
	sliceRates []float64
	// lateMaxMs is how far behind its schedule the generator ran at worst:
	// the largest gap between a request's due time and its actual send.
	lateMaxMs float64
	// backlogMax is the largest number of requests that were already due
	// when one was sent: the queue a stall built up.
	backlogMax int
}

// perSecond is the request rate of the phase: the median over its slices
// when it kept them, so that a stall of the host moves one slice and not the
// result, and the plain quotient otherwise.
func (s loadStats) perSecond() float64 {
	if len(s.sliceRates) >= 3 {
		return median(s.sliceRates)
	}
	if s.elapsed <= 0 {
		return 0
	}
	return float64(s.sent) / s.elapsed.Seconds()
}

// closedLoop is one client that sends its next request as soon as the
// previous one is answered, for d or until maxOps requests (0: no limit),
// keeping the request rate of every slice of its time.  It reads the clock
// around the first request of every batch of `every`, so that the clock does
// not weigh on sub-microsecond operations.
func closedLoop(d, slice time.Duration, maxOps, every int, issue func()) loadStats {
	var st loadStats
	start := time.Now()
	sliceStart, sliceSent := start, 0
	for {
		t0 := time.Now()
		issue()
		st.latUs = append(st.latUs, float64(time.Since(t0))/float64(time.Microsecond))
		for j := 1; j < every; j++ {
			issue()
		}
		st.sent += every
		now := time.Now()
		if el := now.Sub(sliceStart); el >= slice {
			st.sliceRates = append(st.sliceRates, float64(st.sent-sliceSent)/el.Seconds())
			sliceStart, sliceSent = now, st.sent
		}
		if st.elapsed = now.Sub(start); st.elapsed >= d || (maxOps > 0 && st.sent >= maxOps) {
			return st
		}
	}
}

// openLoop sends rate requests per second on a fixed-interval schedule for d,
// whatever the answers take.  One goroutine busy-waits to each due time and
// issues inline (sleeping would put the timer's granularity under every
// latency).  Latency runs from the due time, so a stall is charged to every
// request that queued behind it and not only to the one that stalled.
func openLoop(rate float64, d time.Duration, issue func()) loadStats {
	interval := time.Duration(float64(time.Second) / rate)
	total := int(d / interval)
	st := loadStats{latUs: make([]float64, 0, total)}
	start := time.Now()
	for i := 0; i < total; i++ {
		due := time.Duration(i) * interval
		now := time.Since(start)
		for now < due {
			now = time.Since(start)
		}
		late := now - due
		if ms := float64(late) / float64(time.Millisecond); ms > st.lateMaxMs {
			st.lateMaxMs = ms
		}
		if backlog := int(late / interval); backlog > st.backlogMax {
			st.backlogMax = backlog
		}
		issue()
		st.latUs = append(st.latUs, float64(time.Since(start)-due)/float64(time.Microsecond))
	}
	st.sent = total
	st.elapsed = time.Since(start)
	return st
}
