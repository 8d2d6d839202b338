package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestOpenLoopChargesAStallToTheQueue(t *testing.T) {
	// 1 000 requests/s; request 100 stalls for 50 ms.  The 50 requests that
	// came due meanwhile must each be charged their wait: a generator that
	// waited for the stall to end before scheduling them would report one
	// slow request.
	n := 0
	st := openLoop(1000, 300*time.Millisecond, func() {
		if n == 100 {
			time.Sleep(50 * time.Millisecond)
		}
		n++
	})
	if st.sent != 300 || len(st.latUs) != 300 {
		t.Fatalf("sent %d, %d latencies, want 300", st.sent, len(st.latUs))
	}
	queued := 0
	for _, us := range st.latUs {
		if us >= 1000 {
			queued++
		}
	}
	if queued < 50 {
		t.Errorf("%d requests charged ≥ 1 ms, want ≥ 50", queued)
	}
	if st.lateMaxMs < 45 || st.backlogMax < 45 {
		t.Errorf("late_max_ms %.1f, backlog_max %d, want both ≥ 45", st.lateMaxMs, st.backlogMax)
	}
}

func TestSelfTimeIsDurationMinusChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, StartNs: 30, EndNs: 60}, // overlaps span 2: counted once
		{ID: 4, Parent: 2, StartNs: 15, EndNs: 20},
		{ID: 5, Parent: 1, StartNs: 90, EndNs: 120}, // runs past its parent: clipped
	}
	selfTimes(spans)
	for i, want := range []int64{40, 25, 30, 5, 30} {
		if spans[i].SelfNs != want {
			t.Errorf("span %d: self %d ns, want %d", spans[i].ID, spans[i].SelfNs, want)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name   string
		b      []float64
		higher bool
		want   string
	}{
		{"same", []float64{100, 100, 101, 99, 101}, false, "ok"},
		{"slower", []float64{120, 121, 119, 120, 122}, false, "regressed"},
		{"slower but higher is better", []float64{120, 121, 119, 120, 122}, true, "ok"},
		{"lower throughput", []float64{80, 81, 79, 80, 82}, true, "regressed"},
		{"too noisy to tell", []float64{80, 130, 100, 150, 70}, false, "unresolved"},
		{"noisy but every run better", []float64{40, 90, 60, 20, 70}, false, "ok"},
	} {
		if got := verdict(base, c.b, c.higher, 0.10); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestLayerTableMatchesDeclaration(t *testing.T) {
	sp, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the table %d", len(sp.PerLayer), len(layerMetrics))
	}
	for i, lm := range layerMetrics {
		if sp.PerLayer[i].Name != lm.name {
			t.Errorf("per-layer metric %d: declared %s, table %s", i, sp.PerLayer[i].Name, lm.name)
		}
	}
	for _, w := range sp.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("declared workload %s has no implementation", w.Name)
		}
	}
}

// TestSmoke runs every workload at smoke scale, untraced on one seed and
// traced on another: each must pass its oracle and report exactly the
// declared metric set (runWorkload marks anything else incorrect), and the
// traced run must leave a trace without an untraced gap.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range sp.Workloads {
		for _, traced := range []bool{false, true} {
			seed, declared := int64(11), sp.EndToEnd
			if traced {
				seed, declared = 7, sp.PerLayer
			}
			res, err := runWorkload(sp, w.Name, seed, 0.1, traced, scaleFor(true))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct %v, %d of %d failed", w.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s traced=%v: %d metrics, %d declared", w.Name, traced, len(res.Metrics), len(declared))
			}
			for _, d := range declared {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v)", w.Name, traced, d.Name, m, ok)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, d.Name, m.Value)
				}
			}
			if traced {
				checkTrace(t, filepath.Join(outDir, w.Name+".trace.json"), w.Name)
			}
		}
	}
}

// checkTrace holds the written trace to its arithmetic: every span closed and
// inside its parent, and the self times of each tree summing to its root.
func checkTrace(t *testing.T, path, workload string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	rootOf := func(s span) int {
		for s.Parent != 0 {
			s = spans[s.Parent-1]
		}
		return s.ID
	}
	selfSum := map[int]int64{}
	for _, s := range spans {
		if s.EndNs < s.StartNs || s.Workload != workload {
			t.Fatalf("%s: span %d %q is open or mislabelled: %+v", path, s.ID, s.Name, s)
		}
		selfSum[rootOf(s)] += s.SelfNs
	}
	for id, total := range selfSum {
		root := spans[id-1]
		if dur := root.EndNs - root.StartNs; math.Abs(float64(total-dur)) > 0.01*float64(dur) {
			t.Errorf("%s: self times under root %q sum to %d ns, the root lasts %d ns", path, root.Name, total, dur)
		}
	}
}
