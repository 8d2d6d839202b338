package obsv

import (
	"math"
	"sort"
	"sync"
)

// DefaultFlightSpans is the per-rank ring capacity a Flight uses when the
// caller passes a non-positive size.
const DefaultFlightSpans = 256

// Flight is the package's one span store.  It keeps, per rank, the most recently completed spans on either clock, up to
// a per-rank bound.  A flight ring (NewFlight) never grows past its bound —
// each rank keeps its last N spans and older ones fall off — so a server or
// miner can record every span unconditionally and dump the recent window
// on demand (/debug/flight, parminer -flight).  A Collector (NewCollector)
// is a Flight whose bound is unlimited, so it keeps every span.
//
// Trace() assembles the retained spans in canonical order (sorted meta,
// ranks ascending, each rank's spans in arrival order, then the canonical
// span sort), so for a deterministic producer the ring dump is byte-stable
// run to run just like a full trace.
type Flight struct {
	clock Clock
	cap   int

	mu    sync.Mutex
	meta  map[string]string
	rings map[int]*spanRing
}

// Collector is the standard in-memory Recorder: a Flight that never evicts.
type Collector = Flight

// spanRing is one rank's bounded span buffer: appended to until it holds
// the bound, then written round-robin, with total the number of spans ever
// recorded.
type spanRing struct {
	buf   []Span
	total int
}

// NewFlight builds a flight recorder on the given clock retaining up to
// spansPerRank spans per rank (DefaultFlightSpans if non-positive).
func NewFlight(clock Clock, spansPerRank int) *Flight {
	if spansPerRank <= 0 {
		spansPerRank = DefaultFlightSpans
	}
	return &Flight{
		clock: clock,
		cap:   spansPerRank,
		meta:  make(map[string]string),
		rings: make(map[int]*spanRing),
	}
}

// NewCollector builds a collector for spans on the given clock: a Flight
// that keeps every span it is given.
func NewCollector(clock Clock) *Collector { return NewFlight(clock, math.MaxInt) }

// Record implements Recorder: an append until the rank holds its bound,
// then an O(1) overwrite of the rank's oldest slot.
func (f *Flight) Record(s Span) {
	f.mu.Lock()
	r := f.rings[s.Rank]
	if r == nil {
		r = &spanRing{}
		f.rings[s.Rank] = r
	}
	if len(r.buf) < f.cap {
		r.buf = append(r.buf, s)
	} else {
		r.buf[r.total%f.cap] = s
	}
	r.total++
	f.mu.Unlock()
}

// SetMeta implements Recorder.
func (f *Flight) SetMeta(key, value string) {
	f.mu.Lock()
	f.meta[key] = value
	f.mu.Unlock()
}

// Len returns the number of spans currently retained across all ranks.
func (f *Flight) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, r := range f.rings {
		n += len(r.buf)
	}
	return n
}

// Dropped returns the number of spans that have fallen off the ring.
func (f *Flight) Dropped() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var d int64
	for _, r := range f.rings {
		d += int64(r.total - len(r.buf))
	}
	return d
}

// Trace assembles the retained spans into canonical order: sorted meta
// keys, ranks ascending, each rank's spans oldest to newest, then the
// canonical span sort.  For a deterministic producer (a seeded virtual-time
// run) the result is byte-stable run to run: each rank's goroutine records
// its own spans in program order, and the assembly discards the arbitrary
// interleaving by sorting on span fields alone.
func (f *Flight) Trace() *Trace {
	f.mu.Lock()
	defer f.mu.Unlock()
	t := &Trace{Clock: f.clock}
	keys := make([]string, 0, len(f.meta))
	for k := range f.meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		t.Meta = append(t.Meta, Attr{Key: k, Val: f.meta[k]})
	}
	ranks := make([]int, 0, len(f.rings))
	for r := range f.rings {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	for _, rank := range ranks {
		r := f.rings[rank]
		if r.total <= len(r.buf) {
			t.Spans = append(t.Spans, r.buf...)
			continue
		}
		head := r.total % f.cap // oldest retained slot
		t.Spans = append(t.Spans, r.buf[head:]...)
		t.Spans = append(t.Spans, r.buf[:head]...)
	}
	sortSpans(t.Spans)
	return t
}

// Tee fans spans out to several recorders, so an always-on flight ring can
// ride alongside a caller-installed full collector.  Nil recorders are
// dropped; Tee(nil) is nil and Tee(r) is r, so the result costs nothing
// extra in the degenerate cases.
func Tee(recs ...Recorder) Recorder {
	live := make([]Recorder, 0, len(recs))
	for _, r := range recs {
		if r != nil {
			live = append(live, r)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return teeRecorder(live)
}

// teeRecorder forwards every call to each underlying recorder in order.
type teeRecorder []Recorder

func (t teeRecorder) Record(s Span) {
	for _, r := range t {
		r.Record(s)
	}
}

func (t teeRecorder) SetMeta(key, value string) {
	for _, r := range t {
		r.SetMeta(key, value)
	}
}
