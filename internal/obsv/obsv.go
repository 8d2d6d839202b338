// Package obsv is the observability subsystem: structured, hierarchical
// spans over both of the repo's clocks, with exporters a production toolchain
// understands.
//
// The repo runs on two notions of time.  The mining side (packages cluster
// and core) advances a deterministic *virtual* clock — the paper's entire
// evaluation is a decomposition of where that clock goes (compute vs.
// communication vs. idle vs. redundant work).  The serving side (packages
// serve and distserve) runs on the real OS clock.  This package unifies the
// two behind one span model:
//
//   - Span: one named interval on one rank (run → pass → section →
//     message/compute slice), carrying deterministic key/value attributes
//     (algorithm, pass number, grid position, bytes, message tag).
//   - Recorder: the pluggable sink.  The engine phases of internal/core and
//     the request paths of serve/distserve emit spans into whatever Recorder
//     the caller installs; a nil recorder costs one branch.
//   - Collector: the standard Recorder — an in-memory, concurrency-safe
//     buffer whose Trace() output is deterministically ordered, so traces of
//     seeded virtual-time runs are byte-stable run to run.
//
// Exporters:
//
//   - WriteTrace/ReadTrace: Chrome trace-event JSON (the format Perfetto and
//     chrome://tracing load), one process per rank, byte-deterministic for
//     deterministic span sets.
//   - Attribution/WriteAttribution: the per-pass cost breakdown
//     (compute/send/idle/retry/IO and critical path per pass) — the measured
//     counterpart of the paper's Section IV runtime decomposition, cross-
//     checkable against cluster.Stats.
//   - WriteTimeline: the text Gantt chart of the leaf slices, one row per
//     rank — the only renderer; parminer -timeline and trace -timeline both
//     print it.
//   - PromWriter: Prometheus text exposition, used by the serving tier's
//     /metrics endpoints.
//
// Virtual-time spans must never observe the wall clock; the only real-time
// entry point is RealClock, which is explicitly for the serving tier.  The
// checkinv walltime rule covers this package to keep it that way.
package obsv

import (
	"sort"
	"strconv"
	"sync"
)

// Clock identifies which timebase a trace's span times live on.
type Clock string

// The two clocks.
const (
	// ClockVirtual is the deterministic simulation clock of package cluster:
	// span times are virtual seconds since the start of the run.
	ClockVirtual Clock = "virtual"
	// ClockReal is the OS clock of the serving tier: span times are real
	// seconds since the collector's epoch.
	ClockReal Clock = "real"
)

// Attr is one key/value attribute on a span or a trace.  Values are strings;
// helpers below format numbers canonically so attribute bytes are
// deterministic.
type Attr struct {
	Key string
	Val string
}

// Int formats an integer attribute.
func Int(key string, v int64) Attr { return Attr{Key: key, Val: strconv.FormatInt(v, 10)} }

// Float formats a float attribute with the shortest round-trip encoding.
func Float(key string, v float64) Attr {
	return Attr{Key: key, Val: strconv.FormatFloat(v, 'g', -1, 64)}
}

// String builds a string attribute.
func String(key, val string) Attr { return Attr{Key: key, Val: val} }

// Span is one interval of one rank's timeline.
type Span struct {
	// Name labels the interval: a pass ("pass k=3"), an engine section
	// ("count"), a message tag ("k3.p0/ring"), or a request kind
	// ("recommend").
	Name string
	// Cat classifies the span.  Structural categories ("run", "pass",
	// "section", "request", "publish") nest; slice categories ("compute",
	// "io", "send", "idle", "retry", "drop") are the leaf intervals of a
	// processor's timeline.
	Cat string
	// Rank is the emulated processor (mining) or node ordinal (serving);
	// -1 marks a cluster-wide span (the run itself).
	Rank int
	// Start and End are seconds on the trace's clock.
	Start float64
	End   float64
	// Args carries the span's attributes.  Order is canonicalized (sorted by
	// key) by the exporters.
	Args []Attr
}

// Dur returns the span's duration in seconds.
func (s Span) Dur() float64 { return s.End - s.Start }

// Arg returns the value of the named attribute and whether it is present.
func (s Span) Arg(key string) (string, bool) {
	for _, a := range s.Args {
		if a.Key == key {
			return a.Val, true
		}
	}
	return "", false
}

// Structural span categories.
const (
	CatRun     = "run"
	CatPass    = "pass"
	CatSection = "section"
	CatRequest = "request"
	CatPublish = "publish"
)

// Slice (leaf) span categories: the kinds of interval an emulated processor
// (package cluster) emits as it charges its virtual clock.
const (
	CatCompute = "compute"
	CatIO      = "io"
	CatSend    = "send"
	CatIdle    = "idle"
	CatRetry   = "retry"
	CatDrop    = "drop"
)

// Recorder is the pluggable span sink.  Implementations must be safe for
// concurrent use: the mining engine records from one goroutine per emulated
// processor, and the serving tier from arbitrary request goroutines.
type Recorder interface {
	// Record adds one finished span.
	Record(Span)
	// SetMeta attaches one trace-level key/value (algorithm, processor
	// count, machine name, ...).  Later values for the same key win.
	SetMeta(key, value string)
}

// Trace is an assembled span log: metadata plus spans in canonical order.
type Trace struct {
	// Clock is the timebase every span's Start/End lives on.
	Clock Clock
	// Meta holds trace-level attributes, sorted by key.
	Meta []Attr
	// Spans is ordered by (Rank, Start, -End, Cat, Name): ranks ascending,
	// then chronological, with enclosing spans before the spans they
	// contain.
	Spans []Span
}

// Meta returns the value of a trace-level attribute.
func (t *Trace) MetaValue(key string) (string, bool) {
	for _, a := range t.Meta {
		if a.Key == key {
			return a.Val, true
		}
	}
	return "", false
}

// Ranks returns the number of distinct non-negative ranks, i.e. max rank+1.
func (t *Trace) Ranks() int {
	max := -1
	for _, s := range t.Spans {
		if s.Rank > max {
			max = s.Rank
		}
	}
	return max + 1
}

// Collector is the standard in-memory Recorder.  The zero value is not
// ready; use NewCollector.
type Collector struct {
	clock Clock

	mu     sync.Mutex
	meta   map[string]string
	byRank map[int][]Span
}

// NewCollector builds a collector for spans on the given clock.
func NewCollector(clock Clock) *Collector {
	return &Collector{
		clock:  clock,
		meta:   make(map[string]string),
		byRank: make(map[int][]Span),
	}
}

// Record implements Recorder.
func (c *Collector) Record(s Span) {
	c.mu.Lock()
	c.byRank[s.Rank] = append(c.byRank[s.Rank], s)
	c.mu.Unlock()
}

// SetMeta implements Recorder.
func (c *Collector) SetMeta(key, value string) {
	c.mu.Lock()
	c.meta[key] = value
	c.mu.Unlock()
}

// Trace assembles the collected spans into canonical order.  For a
// deterministic producer (a seeded virtual-time run) the result is
// byte-stable run to run: each rank's goroutine records its own spans in
// program order, and the assembly discards the arbitrary interleaving by
// sorting on span fields alone.
func (c *Collector) Trace() *Trace {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &Trace{Clock: c.clock}
	keys := make([]string, 0, len(c.meta))
	for k := range c.meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		t.Meta = append(t.Meta, Attr{Key: k, Val: c.meta[k]})
	}
	ranks := make([]int, 0, len(c.byRank))
	for r := range c.byRank {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	for _, r := range ranks {
		t.Spans = append(t.Spans, c.byRank[r]...)
	}
	sortSpans(t.Spans)
	return t
}

// sortSpans orders spans canonically: rank ascending, then start time, with
// longer (enclosing) spans before shorter ones at the same start, then
// category and name as final tie-breaks.
func sortSpans(spans []Span) {
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.End != b.End {
			return a.End > b.End
		}
		if a.Cat != b.Cat {
			return a.Cat < b.Cat
		}
		return a.Name < b.Name
	})
}
