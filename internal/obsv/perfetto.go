package obsv

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// The Chrome trace-event exporter.  The output is the JSON object format
// that Perfetto and chrome://tracing load: one process per rank (pid =
// rank+2, so the cluster-wide rank -1 gets pid 1), structural spans on
// thread 1 and leaf slices on thread 2, every span a "X" complete event with
// microsecond timestamps.  The writer builds the JSON by hand — sorted
// metadata, sorted args, canonical float formatting, one event per line —
// so a deterministic span set serializes to identical bytes every run.

const (
	tidSpans  = 1
	tidEvents = 2
)

// perfettoPid maps a span rank onto a trace-event process id (must be >0).
func perfettoPid(rank int) int { return rank + 2 }

// WriteTrace writes t as Chrome trace-event JSON.
//
// Spans sharing a "link" argument (the router stamps one request id across
// a distributed query's root span and every fan-out leg, hedges and retries
// included) additionally emit Chrome flow events ("s"/"t"/"f"), so Perfetto
// draws arrows from the slow /recommend slice to the exact replica legs
// that served it.  Traces without link arguments — all mining traces —
// serialize byte-identically to before.
func WriteTrace(w io.Writer, t *Trace) error {
	spans := make([]Span, len(t.Spans))
	copy(spans, t.Spans)
	sortSpans(spans)

	// Flow groups: link value → indices of the member spans, in span sort
	// order.  Ids are assigned by sorted link value, so the byte output is a
	// pure function of the span set.
	groups := make(map[string][]int)
	for i, s := range spans {
		if v, ok := s.Arg("link"); ok {
			groups[v] = append(groups[v], i)
		}
	}
	links := make([]string, 0, len(groups))
	for v, idxs := range groups {
		if len(idxs) >= 2 {
			links = append(links, v)
		}
	}
	sort.Strings(links)
	flowID := make(map[string]int, len(links))
	for i, v := range links {
		flowID[v] = i + 1
	}

	var b strings.Builder
	b.WriteString("{\n\"displayTimeUnit\": \"ms\",\n\"otherData\": {")
	b.WriteString(jsonString("clock"))
	b.WriteString(": ")
	b.WriteString(jsonString(string(t.Clock)))
	for _, a := range t.Meta {
		if a.Key == "clock" {
			continue
		}
		b.WriteString(", ")
		b.WriteString(jsonString(a.Key))
		b.WriteString(": ")
		b.WriteString(jsonString(a.Val))
	}
	b.WriteString("},\n\"traceEvents\": [\n")

	// Process/thread metadata first, ranks ascending.
	ranks := make([]int, 0, 8)
	seen := make(map[int]bool)
	for _, s := range spans {
		if !seen[s.Rank] {
			seen[s.Rank] = true
			ranks = append(ranks, s.Rank)
		}
	}
	sort.Ints(ranks)
	first := true
	emit := func(line string) {
		if !first {
			b.WriteString(",\n")
		}
		first = false
		b.WriteString(line)
	}
	for _, r := range ranks {
		pid := perfettoPid(r)
		name := "cluster"
		if r >= 0 {
			name = "rank " + strconv.Itoa(r)
		}
		emit(fmt.Sprintf(`{"ph": "M", "pid": %d, "name": "process_name", "args": {"name": %s}}`, pid, jsonString(name)))
		emit(fmt.Sprintf(`{"ph": "M", "pid": %d, "name": "process_sort_index", "args": {"sort_index": %d}}`, pid, pid))
		emit(fmt.Sprintf(`{"ph": "M", "pid": %d, "tid": %d, "name": "thread_name", "args": {"name": "spans"}}`, pid, tidSpans))
		emit(fmt.Sprintf(`{"ph": "M", "pid": %d, "tid": %d, "name": "thread_name", "args": {"name": "events"}}`, pid, tidEvents))
	}

	for si, s := range spans {
		tid := tidEvents
		switch s.Cat {
		case CatRun, CatPass, CatSection, CatRequest, CatPublish:
			tid = tidSpans
		}
		var e strings.Builder
		e.WriteString(`{"ph": "X", "pid": `)
		e.WriteString(strconv.Itoa(perfettoPid(s.Rank)))
		e.WriteString(`, "tid": `)
		e.WriteString(strconv.Itoa(tid))
		e.WriteString(`, "ts": `)
		e.WriteString(micros(s.Start))
		e.WriteString(`, "dur": `)
		e.WriteString(micros(s.End - s.Start))
		e.WriteString(`, "name": `)
		e.WriteString(jsonString(s.Name))
		e.WriteString(`, "cat": `)
		e.WriteString(jsonString(s.Cat))
		if len(s.Args) > 0 {
			e.WriteString(`, "args": {`)
			args := make([]Attr, len(s.Args))
			copy(args, s.Args)
			sort.Slice(args, func(i, j int) bool { return args[i].Key < args[j].Key })
			for i, a := range args {
				if i > 0 {
					e.WriteString(", ")
				}
				e.WriteString(jsonString(a.Key))
				e.WriteString(": ")
				e.WriteString(jsonString(a.Val))
			}
			e.WriteString("}")
		}
		e.WriteString("}")
		emit(e.String())

		// Flow arrow through this span.  The flow event's ts sits at the
		// span's start, inside the X slice just emitted, so Perfetto binds
		// the arrow to it ("f" binds to the enclosing slice via bp).
		if v, ok := s.Arg("link"); ok {
			if id := flowID[v]; id > 0 {
				idxs := groups[v]
				ph, bp := "t", ""
				switch si {
				case idxs[0]:
					ph = "s"
				case idxs[len(idxs)-1]:
					ph, bp = "f", `, "bp": "e"`
				}
				emit(fmt.Sprintf(`{"ph": %q, "pid": %d, "tid": %d, "ts": %s, "id": %d, "name": %s, "cat": "flow"%s}`,
					ph, perfettoPid(s.Rank), tid, micros(s.Start), id, jsonString(v), bp))
			}
		}
	}
	b.WriteString("\n]\n}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// micros formats seconds as microseconds with the shortest round-trip
// decimal encoding (Perfetto accepts fractional microseconds).
func micros(sec float64) string {
	return strconv.FormatFloat(sec*1e6, 'f', -1, 64)
}

// jsonString encodes s as a JSON string literal.  encoding/json's string
// escaping is deterministic.
func jsonString(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		// Marshalling a string cannot fail.
		panic(err)
	}
	return string(b)
}

// perfettoFile mirrors the on-disk JSON object format for reading.
type perfettoFile struct {
	OtherData   map[string]string `json:"otherData"`
	TraceEvents []perfettoEvent   `json:"traceEvents"`
}

type perfettoEvent struct {
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Args map[string]any `json:"args"`
}

// ReadTrace parses a trace written by WriteTrace (or any Chrome trace-event
// JSON object whose complete events carry the pid/cat conventions above)
// back into a Trace.  Metadata events are skipped; timestamps come back as
// seconds.
func ReadTrace(r io.Reader) (*Trace, error) {
	var f perfettoFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("obsv: parsing trace JSON: %w", err)
	}
	if f.TraceEvents == nil {
		return nil, fmt.Errorf("obsv: not a trace-event file: no traceEvents array")
	}
	t := &Trace{Clock: ClockVirtual}
	if c, ok := f.OtherData["clock"]; ok {
		t.Clock = Clock(c)
	}
	metaKeys := make([]string, 0, len(f.OtherData))
	for k := range f.OtherData {
		if k != "clock" {
			metaKeys = append(metaKeys, k)
		}
	}
	sort.Strings(metaKeys)
	for _, k := range metaKeys {
		t.Meta = append(t.Meta, Attr{Key: k, Val: f.OtherData[k]})
	}
	for _, e := range f.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		if e.Dur < 0 {
			return nil, fmt.Errorf("obsv: event %q (pid %d, ts %v) has negative dur %v", e.Name, e.Pid, e.Ts, e.Dur)
		}
		s := Span{
			Name:  e.Name,
			Cat:   e.Cat,
			Rank:  e.Pid - 2,
			Start: e.Ts / 1e6,
			End:   (e.Ts + e.Dur) / 1e6,
		}
		if len(e.Args) > 0 {
			keys := make([]string, 0, len(e.Args))
			for k := range e.Args {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				s.Args = append(s.Args, Attr{Key: k, Val: fmt.Sprint(e.Args[k])})
			}
		}
		t.Spans = append(t.Spans, s)
	}
	sortSpans(t.Spans)
	return t, nil
}
