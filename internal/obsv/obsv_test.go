package obsv

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

func sampleCollector() *Collector {
	c := NewCollector(ClockVirtual)
	c.SetMeta("p", "2")
	c.SetMeta("algo", "IDD")
	// Recorded deliberately out of order; Trace() must canonicalize.
	c.Record(Span{Name: "subset", Cat: CatCompute, Rank: 1, Start: 0.2, End: 0.5})
	c.Record(Span{Name: "pass k=2", Cat: CatPass, Rank: 1, Start: 0.2, End: 0.9, Args: []Attr{Int("k", 2)}})
	c.Record(Span{Name: "run", Cat: CatRun, Rank: -1, Start: 0, End: 1.0})
	c.Record(Span{Name: "pass k=2", Cat: CatPass, Rank: 0, Start: 0.2, End: 0.9, Args: []Attr{Int("k", 2)}})
	c.Record(Span{Name: "io", Cat: CatIO, Rank: 0, Start: 0.3, End: 0.4, Args: []Attr{Int("bytes", 4096)}})
	c.Record(Span{Name: "ring", Cat: CatSend, Rank: 0, Start: 0.4, End: 0.45, Args: []Attr{Int("peer", 1), Int("bytes", 128)}})
	c.Record(Span{Name: "sync", Cat: CatIdle, Rank: 1, Start: 0.5, End: 0.9})
	return c
}

func TestCollectorCanonicalOrder(t *testing.T) {
	tr := sampleCollector().Trace()
	if got, _ := tr.MetaValue("algo"); got != "IDD" {
		t.Fatalf("meta algo = %q", got)
	}
	if len(tr.Meta) != 2 || tr.Meta[0].Key != "algo" || tr.Meta[1].Key != "p" {
		t.Fatalf("meta not sorted: %+v", tr.Meta)
	}
	for i := 1; i < len(tr.Spans); i++ {
		a, b := tr.Spans[i-1], tr.Spans[i]
		if a.Rank > b.Rank || (a.Rank == b.Rank && a.Start > b.Start) {
			t.Fatalf("spans out of order at %d: %+v then %+v", i, a, b)
		}
	}
	if tr.Spans[0].Rank != -1 || tr.Spans[0].Cat != CatRun {
		t.Fatalf("run span not first: %+v", tr.Spans[0])
	}
	// Enclosing pass span before the slices it contains.
	if tr.Spans[1].Cat != CatPass {
		t.Fatalf("rank 0 pass span not before its slices: %+v", tr.Spans[1])
	}
	if tr.Ranks() != 2 {
		t.Fatalf("Ranks() = %d, want 2", tr.Ranks())
	}
}

func TestPerfettoWriteDeterministicAndValid(t *testing.T) {
	var a, b bytes.Buffer
	if err := WriteTrace(&a, sampleCollector().Trace()); err != nil {
		t.Fatal(err)
	}
	if err := WriteTrace(&b, sampleCollector().Trace()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("identical traces serialized differently:\n%s\nvs\n%s", a.String(), b.String())
	}
	if !json.Valid(a.Bytes()) {
		t.Fatalf("output is not valid JSON:\n%s", a.String())
	}
	// Perfetto essentials: complete events with pid/ts/dur and process names.
	s := a.String()
	for _, want := range []string{`"ph": "X"`, `"ph": "M"`, `"process_name"`, `"rank 0"`, `"cluster"`, `"displayTimeUnit"`} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %s", want)
		}
	}
}

func TestPerfettoRoundTrip(t *testing.T) {
	orig := sampleCollector().Trace()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Clock != ClockVirtual {
		t.Fatalf("clock = %q", got.Clock)
	}
	if len(got.Meta) != len(orig.Meta) {
		t.Fatalf("meta count %d != %d", len(got.Meta), len(orig.Meta))
	}
	if len(got.Spans) != len(orig.Spans) {
		t.Fatalf("span count %d != %d", len(got.Spans), len(orig.Spans))
	}
	for i := range got.Spans {
		g, o := got.Spans[i], orig.Spans[i]
		if g.Name != o.Name || g.Cat != o.Cat || g.Rank != o.Rank {
			t.Fatalf("span %d identity differs: %+v vs %+v", i, g, o)
		}
		if math.Abs(g.Start-o.Start) > 1e-9 || math.Abs(g.End-o.End) > 1e-9 {
			t.Fatalf("span %d bounds differ: [%v,%v] vs [%v,%v]", i, g.Start, g.End, o.Start, o.End)
		}
		if len(g.Args) != len(o.Args) {
			t.Fatalf("span %d args differ: %+v vs %+v", i, g.Args, o.Args)
		}
	}
}

// TestPerfettoFlowEvents: spans sharing a "link" argument emit a flow arrow
// (start/step/finish events) tying a request's root span to its fan-out
// legs; spans without links — every mining trace — produce no flow events
// at all, keeping those serializations byte-identical to before.
func TestPerfettoFlowEvents(t *testing.T) {
	c := NewCollector(ClockReal)
	link := []Attr{String("link", "q7")}
	c.Record(Span{Name: "recommend", Cat: CatRequest, Rank: -1, Start: 0, End: 3e-3, Args: link})
	c.Record(Span{Name: "fanout", Cat: CatSend, Rank: 0, Start: 1e-3, End: 2e-3,
		Args: []Attr{String("link", "q7"), String("attempt", "primary")}})
	c.Record(Span{Name: "fanout", Cat: CatSend, Rank: 1, Start: 1e-3, End: 2.5e-3,
		Args: []Attr{String("link", "q7"), String("attempt", "hedge")}})
	// A second, single-span link must not grow a flow (nothing to connect).
	c.Record(Span{Name: "recommend", Cat: CatRequest, Rank: -1, Start: 4e-3, End: 5e-3,
		Args: []Attr{String("link", "q8")}})

	var buf bytes.Buffer
	if err := WriteTrace(&buf, c.Trace()); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("output is not valid JSON:\n%s", s)
	}
	for _, want := range []string{`"ph": "s"`, `"ph": "t"`, `"ph": "f"`, `"bp": "e"`, `"cat": "flow"`} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing flow event part %s:\n%s", want, s)
		}
	}
	if n := strings.Count(s, `"cat": "flow"`); n != 3 {
		t.Errorf("flow event count = %d, want 3 (one per q7 span, none for q8)", n)
	}

	// The flow must survive a round trip of the X events (ReadTrace skips
	// flow phases) and regenerate identically on re-write.
	rt, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := WriteTrace(&again, rt); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatalf("flow events not stable across a round trip:\n%s\nvs\n%s", s, again.String())
	}

	// Link-free traces stay flow-free.
	var plain bytes.Buffer
	if err := WriteTrace(&plain, sampleCollector().Trace()); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), `"cat": "flow"`) {
		t.Error("mining trace grew flow events without any link args")
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadTrace(strings.NewReader(`{"foo": 1}`)); err == nil {
		t.Fatal("non-trace JSON accepted")
	}
	// A complete event that ends before it starts: the error names it.
	const negative = `{"traceEvents": [{"name": "pass k=2", "cat": "pass", "ph": "X", "pid": 2, "tid": 1, "ts": 10, "dur": -3}]}`
	if _, err := ReadTrace(strings.NewReader(negative)); err == nil || !strings.Contains(err.Error(), `"pass k=2"`) {
		t.Fatalf("negative dur: err = %v, want a refusal naming the event", err)
	}
}

func TestAttribution(t *testing.T) {
	c := NewCollector(ClockVirtual)
	for rank := 0; rank < 2; rank++ {
		c.Record(Span{Name: "pass k=1", Cat: CatPass, Rank: rank, Start: 0, End: 1, Args: []Attr{Int("k", 1)}})
		c.Record(Span{Name: "pass k=2", Cat: CatPass, Rank: rank, Start: 1, End: 3, Args: []Attr{Int("k", 2)}})
	}
	// Pass 1: rank 0 computes 0.8 and idles 0.2; rank 1 computes 0.5.
	c.Record(Span{Name: "scan", Cat: CatCompute, Rank: 0, Start: 0, End: 0.8})
	c.Record(Span{Name: "sync", Cat: CatIdle, Rank: 0, Start: 0.8, End: 1})
	c.Record(Span{Name: "scan", Cat: CatCompute, Rank: 1, Start: 0, End: 0.5})
	// Pass 2: sends and a retry.
	c.Record(Span{Name: "ring", Cat: CatSend, Rank: 0, Start: 1, End: 1.5})
	c.Record(Span{Name: "backoff", Cat: CatRetry, Rank: 1, Start: 1, End: 1.25})
	// Outside every pass.
	c.Record(Span{Name: "teardown", Cat: CatCompute, Rank: 0, Start: 3, End: 3.5})

	costs := Attribution(c.Trace())
	if len(costs) != 3 {
		t.Fatalf("got %d buckets, want 3: %+v", len(costs), costs)
	}
	p1, p2, other := costs[0], costs[1], costs[2]
	if p1.Pass != 1 || p2.Pass != 2 || other.Pass != -1 {
		t.Fatalf("bucket order wrong: %+v", costs)
	}
	if math.Abs(p1.Compute-1.3) > 1e-12 || math.Abs(p1.Idle-0.2) > 1e-12 {
		t.Errorf("pass 1: compute %v idle %v", p1.Compute, p1.Idle)
	}
	// Critical path of pass 1 is rank 0's 0.8s of busy time (idle excluded).
	if math.Abs(p1.CriticalPath-0.8) > 1e-12 {
		t.Errorf("pass 1 critical path %v, want 0.8", p1.CriticalPath)
	}
	if math.Abs(p1.Elapsed-1) > 1e-12 || math.Abs(p2.Elapsed-2) > 1e-12 {
		t.Errorf("elapsed: p1 %v p2 %v", p1.Elapsed, p2.Elapsed)
	}
	if math.Abs(p2.Send-0.5) > 1e-12 || math.Abs(p2.Retry-0.25) > 1e-12 {
		t.Errorf("pass 2: send %v retry %v", p2.Send, p2.Retry)
	}
	if math.Abs(other.Compute-0.5) > 1e-12 {
		t.Errorf("other: compute %v", other.Compute)
	}
	tot := TotalCost(costs)
	if math.Abs(tot.Compute-1.8) > 1e-12 || math.Abs(tot.Send-0.5) > 1e-12 {
		t.Errorf("total: %+v", tot)
	}
	if math.Abs(tot.Start-0) > 1e-12 || math.Abs(tot.End-3) > 1e-12 {
		t.Errorf("total bounds: [%v, %v]", tot.Start, tot.End)
	}

	var a, b bytes.Buffer
	if err := WriteAttribution(&a, costs); err != nil {
		t.Fatal(err)
	}
	if err := WriteAttribution(&b, costs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("attribution table not deterministic")
	}
	for _, want := range []string{"k=1", "k=2", "other", "total", "compute", "critpath"} {
		if !strings.Contains(a.String(), want) {
			t.Errorf("table missing %q:\n%s", want, a.String())
		}
	}
}

func TestWriteTimeline(t *testing.T) {
	tr := &Trace{Clock: ClockVirtual, Spans: []Span{
		{Rank: -1, Cat: CatRun, Name: "mine", Start: 0, End: 1.0},
		{Rank: 0, Cat: CatPass, Name: "pass k=1", Start: 0, End: 0.6},
		{Rank: 0, Cat: CatCompute, Name: "subset", Start: 0, End: 0.5},
		{Rank: 0, Cat: CatSend, Name: "ring", Start: 0.5, End: 0.6},
		{Rank: 1, Cat: CatIdle, Name: "ring", Start: 0, End: 0.6},
		{Rank: 1, Cat: CatCompute, Name: "subset", Start: 0.6, End: 1.0},
	}}
	var sb strings.Builder
	if err := WriteTimeline(&sb, tr, 40); err != nil {
		t.Fatal(err)
	}
	want := "virtual time 0 .. 1.000000s   (# compute, > send, o io, . idle, r retry, x drop)\n" +
		"P0   |###################>>>>>                |\n" +
		"P1   |.......................#################|\n"
	if sb.String() != want {
		t.Errorf("timeline:\n%swant:\n%s", sb.String(), want)
	}
}

func TestWriteTimelineEmpty(t *testing.T) {
	// Structural spans alone paint nothing.
	tr := &Trace{Clock: ClockVirtual, Spans: []Span{{Rank: 0, Cat: CatPass, Name: "pass k=1", Start: 0, End: 1}}}
	var sb strings.Builder
	if err := WriteTimeline(&sb, tr, 40); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "(no slice spans)\n" {
		t.Errorf("empty trace output: %q", sb.String())
	}
}

func TestPromWriter(t *testing.T) {
	build := func() []byte {
		w := NewPromWriter()
		w.Gauge("up", "Whether the server is up.", 1)
		w.Counter("requests_total", "Requests served.", 42, String("mode", "node"), String("path", "/recommend"))
		w.Counter("requests_total", "Requests served.", 7, String("mode", "node"), String("path", "/rules"))
		w.Histogram("latency_micros", "Request latency.", []float64{1, 2, 4}, []int64{3, 2, 1, 4}, 123.5)
		return w.Bytes()
	}
	got := string(build())
	want := `# HELP up Whether the server is up.
# TYPE up gauge
up 1
# HELP requests_total Requests served.
# TYPE requests_total counter
requests_total{mode="node",path="/recommend"} 42
requests_total{mode="node",path="/rules"} 7
# HELP latency_micros Request latency.
# TYPE latency_micros histogram
latency_micros_bucket{le="1"} 3
latency_micros_bucket{le="2"} 5
latency_micros_bucket{le="4"} 6
latency_micros_bucket{le="+Inf"} 10
latency_micros_sum 123.5
latency_micros_count 10
`
	if got != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if !bytes.Equal(build(), build()) {
		t.Fatal("exposition not deterministic")
	}
	if escapeLabel(`a"b\c`+"\n") != `a\"b\\c\n` {
		t.Errorf("label escaping wrong: %q", escapeLabel(`a"b\c`+"\n"))
	}
}

func TestRealClockNil(t *testing.T) {
	var rc *RealClock = NewRealClock(nil)
	if rc != nil {
		t.Fatal("NewRealClock(nil) should be nil")
	}
	// Every method must be a safe no-op on nil.
	rc.Record("x", CatRequest, 0, rc.Now(), rc.At(time.Time{}))
	rc.SetMeta("k", "v")
}

func TestRealClockRecords(t *testing.T) {
	c := NewCollector(ClockReal)
	rc := NewRealClock(c)
	start := rc.At(rc.epoch.Add(2 * time.Millisecond))
	if math.Abs(start-2e-3) > 1e-12 {
		t.Fatalf("At(epoch + 2ms) = %vs", start)
	}
	end := rc.At(rc.epoch.Add(3500 * time.Microsecond))
	if math.Abs(end-start-1.5e-3) > 1e-12 {
		t.Fatalf("At spaces readings 1.5ms apart by %vs", end-start)
	}
	rc.Record("recommend", CatRequest, 0, start, end, Int("k", 10))
	tr := c.Trace()
	if len(tr.Spans) != 1 {
		t.Fatalf("got %d spans", len(tr.Spans))
	}
	if s := tr.Spans[0]; s.Start != start || s.End != end {
		t.Fatalf("span %+v, want it to run from %v to %v", s, start, end)
	}
	if v, _ := tr.MetaValue("clock"); v != string(ClockReal) {
		t.Fatalf("clock meta = %q", v)
	}
}
