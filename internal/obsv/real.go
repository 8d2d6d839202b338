package obsv

import "time"

// RealClock anchors real-time spans to an epoch so the serving tier can
// record request/publish spans on the same Span model the mining side uses
// for virtual time.  It is the package's only wall-clock entry point — the
// mining path must never construct one (checkinv's walltime rule enforces
// that this file stays the only annotated site).
type RealClock struct {
	rec   Recorder
	epoch time.Time
}

// NewRealClock wraps a recorder; span times will be real seconds since now.
// A nil recorder yields a nil RealClock, and every method on a nil RealClock
// is a cheap no-op, so callers hook spans unconditionally.
func NewRealClock(rec Recorder) *RealClock {
	if rec == nil {
		return nil
	}
	c := &RealClock{rec: rec}
	c.epoch = time.Now() //checkinv:allow walltime — real-clock epoch for the serving tier, never the mining path
	c.rec.SetMeta("clock", string(ClockReal))
	return c
}

// Now returns seconds since the epoch.
func (c *RealClock) Now() float64 {
	if c == nil {
		return 0
	}
	return time.Since(c.epoch).Seconds() //checkinv:allow walltime — real-clock read for the serving tier
}

// At converts a clock reading the caller already took to seconds since the
// epoch, so a request that reads the clock once at entry and once at exit
// times its span, its latency sample and its exemplar from those two reads.
func (c *RealClock) At(t time.Time) float64 {
	if c == nil {
		return 0
	}
	return t.Sub(c.epoch).Seconds()
}

// Record emits a span from start to end, both Now() or At() values.
func (c *RealClock) Record(name, cat string, rank int, start, end float64, args ...Attr) {
	if c == nil {
		return
	}
	c.rec.Record(Span{Name: name, Cat: cat, Rank: rank, Start: start, End: end, Args: args})
}

// SetMeta forwards a trace-level attribute to the recorder.
func (c *RealClock) SetMeta(key, value string) {
	if c == nil {
		return
	}
	c.rec.SetMeta(key, value)
}
