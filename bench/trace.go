package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// layer's exported function.  IDs start at 1; Parent 0 marks a root.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	SelfNs   int64  `json:"self_ns"`
}

// recorder keeps the spans of one traced run in memory until the run ends.
// A nil *recorder records nothing, so the same call sites serve the traced
// and the untraced run.
type recorder struct {
	workload string
	epoch    time.Time
	mu       sync.Mutex
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, epoch: time.Now()}
}

// begin opens a span under parent (0 for a root) and returns its ID.
func (r *recorder) begin(parent int, name string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Workload: r.workload, StartNs: now, EndNs: -1})
	r.mu.Unlock()
	return id
}

// end closes the span and returns how long it was open.
func (r *recorder) end(id int) time.Duration {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	s := &r.spans[id-1]
	s.EndNs = now
	d := time.Duration(now - s.StartNs)
	r.mu.Unlock()
	return d
}

// timed runs fn inside a span and returns fn's wall time, measured the same
// way whether or not a recorder is installed.
func (r *recorder) timed(parent int, name string, fn func(id int)) time.Duration {
	id := r.begin(parent, name)
	t0 := time.Now()
	fn(id)
	d := time.Since(t0)
	r.end(id)
	return d
}

// selfTimes fills SelfNs: a span's duration minus the part of its interval
// that its child spans cover (overlapping children are counted once).
func selfTimes(spans []span) {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNs < spans[kids[b]].StartNs })
		covered, cursor := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := spans[k].StartNs, spans[k].EndNs
			if lo < cursor {
				lo = cursor
			}
			if hi > s.EndNs {
				hi = s.EndNs
			}
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		s.SelfNs = s.EndNs - s.StartNs - covered
	}
}

// write closes the book: computes self times and stores the spans as JSON.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	selfTimes(r.spans)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
