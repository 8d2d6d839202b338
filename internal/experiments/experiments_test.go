package experiments

import (
	"reflect"
	"strings"
	"testing"
)

// quickCfg keeps experiment smoke tests small: endpoint-only sweeps at a
// tenth of the default workload.  Under `go test -short` (the -race CI
// job) the processor sweeps are additionally capped — with race
// instrumentation the 64- and 128-goroutine machines dominate the
// runtime.  Scale stays put: near the 100-transaction floor the support
// threshold degenerates and candidate sets blow up.
func quickCfg() Config {
	c := Config{Scale: 0.15, Quick: true, Seed: 7}
	if testing.Short() {
		c.MaxP = 16
	}
	return c
}

// memo holds each experiment's quick-config result for the life of the test
// binary.  Several tests read different columns of the same experiment;
// running it once per test multiplied the package's wall time.  The
// package's tests run sequentially, so the map needs no lock.
var memo = map[string]*Result{}

// runNamed returns the named experiment's result under quickCfg, running it
// the first time a test asks.  Callers only read the result.
func runNamed(t *testing.T, name string) *Result {
	t.Helper()
	if res, ok := memo[name]; ok {
		return res
	}
	memo[name] = runFresh(t, name)
	return memo[name]
}

// runFresh always runs the experiment: the second run of a reproducibility
// test.
func runFresh(t *testing.T, name string) *Result {
	t.Helper()
	n, ok := Lookup(name)
	if !ok {
		t.Fatalf("experiment %q not registered", name)
	}
	res, err := n.Run(quickCfg())
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if res.ID != name {
		t.Errorf("%s: result ID = %q", name, res.ID)
	}
	return res
}

func TestAllRegistered(t *testing.T) {
	want := []string{"table2", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "model", "ablate", "hpa", "faults", "attrib"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("All() has %d entries, want %d", len(all), len(want))
	}
	for i, n := range all {
		if n.Name != want[i] {
			t.Errorf("All()[%d] = %q, want %q", i, n.Name, want[i])
		}
		if n.Run == nil || n.Doc == "" {
			t.Errorf("entry %q incomplete", n.Name)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup(nope) succeeded")
	}
}

func TestTable2ShrinkingGrid(t *testing.T) {
	res := runNamed(t, "table2")
	if len(res.TableRows) < 2 {
		t.Fatalf("only %d rows", len(res.TableRows))
	}
	// The last pass should have collapsed toward CD: fewer grid rows than
	// the widest pass.
	first := res.TableRows[0][1]
	last := res.TableRows[len(res.TableRows)-1][1]
	if first == last && len(res.TableRows) > 3 {
		t.Errorf("grid never changed: first %s, last %s", first, last)
	}
	if !strings.Contains(last, "1x") {
		t.Errorf("final pass grid = %s, want CD-like 1xP", last)
	}
}

func TestFig10Shapes(t *testing.T) {
	res := runNamed(t, "fig10")
	series := map[string][]Point{}
	for _, s := range res.Series {
		series[s.Name] = s.Points
	}
	cd, hd := series["CD"], series["HD"]
	if len(cd) < 2 || len(hd) < 2 {
		t.Fatalf("missing endpoints: CD %d, HD %d points", len(cd), len(hd))
	}
	// Scaleup: CD stays within 2x of its P=1 time across the sweep.
	if cd[len(cd)-1].Y > 2*cd[0].Y {
		t.Errorf("CD scaleup broke: %v -> %v", cd[0].Y, cd[len(cd)-1].Y)
	}
	// HD at the largest machine beats or matches CD.
	if hd[len(hd)-1].Y > cd[len(cd)-1].Y*1.1 {
		t.Errorf("HD (%v) worse than CD (%v) at max P", hd[len(hd)-1].Y, cd[len(cd)-1].Y)
	}
}

func TestFig11IDDBelowDD(t *testing.T) {
	res := runNamed(t, "fig11")
	var dd, idd []Point
	for _, s := range res.Series {
		switch s.Name {
		case "DD":
			dd = s.Points
		case "IDD":
			idd = s.Points
		}
	}
	if len(dd) == 0 || len(dd) != len(idd) {
		t.Fatalf("series lengths: DD %d, IDD %d", len(dd), len(idd))
	}
	for i := range dd {
		if idd[i].Y >= dd[i].Y {
			t.Errorf("P=%v: IDD %v not below DD %v", dd[i].X, idd[i].Y, dd[i].Y)
		}
	}
	// The gap grows with P (the paper's point).
	firstRatio := dd[0].Y / idd[0].Y
	lastRatio := dd[len(dd)-1].Y / idd[len(idd)-1].Y
	if lastRatio <= firstRatio {
		t.Errorf("DD/IDD ratio did not grow: %v -> %v", firstRatio, lastRatio)
	}
}

func TestFig12CDLosesAtHighM(t *testing.T) {
	res := runNamed(t, "fig12")
	series := map[string][]Point{}
	for _, s := range res.Series {
		series[s.Name] = s.Points
	}
	cd, idd := series["CD"], series["IDD"]
	last := len(cd) - 1
	if cd[last].Y <= idd[last].Y {
		t.Errorf("at max candidates CD (%v) should lose to IDD (%v)", cd[last].Y, idd[last].Y)
	}
	// Candidates grow along the sweep.
	if cd[last].X <= cd[0].X {
		t.Errorf("candidate count did not grow: %v -> %v", cd[0].X, cd[last].X)
	}
}

func TestFig13SpeedupsPositive(t *testing.T) {
	res := runNamed(t, "fig13")
	for _, s := range res.Series {
		for _, pt := range s.Points {
			if pt.Y <= 0 {
				t.Errorf("%s at P=%v: speedup %v", s.Name, pt.X, pt.Y)
			}
		}
		last := s.Points[len(s.Points)-1]
		if last.X > 1 && last.Y < 1 {
			t.Errorf("%s: speedup %v below 1 at P=%v", s.Name, last.Y, last.X)
		}
	}
}

func TestFig14RuntimeGrowsWithN(t *testing.T) {
	res := runNamed(t, "fig14")
	for _, s := range res.Series {
		first, last := s.Points[0], s.Points[len(s.Points)-1]
		if last.Y <= first.Y {
			t.Errorf("%s: runtime did not grow with N: %v -> %v", s.Name, first.Y, last.Y)
		}
	}
}

func TestFig15IDDBeatsCDAtHighM(t *testing.T) {
	res := runNamed(t, "fig15")
	series := map[string][]Point{}
	for _, s := range res.Series {
		series[s.Name] = s.Points
	}
	cd, idd, hd := series["CD"], series["IDD"], series["HD"]
	last := len(cd) - 1
	if cd[last].Y <= idd[last].Y {
		t.Errorf("at max M: CD %v should exceed IDD %v", cd[last].Y, idd[last].Y)
	}
	if hd[last].Y > idd[last].Y*1.05 {
		t.Errorf("at max M HD (%v) should track IDD (%v)", hd[last].Y, idd[last].Y)
	}
}

func TestModelOrdering(t *testing.T) {
	res := runNamed(t, "model")
	pred := map[string][]Point{}
	for _, s := range res.Series {
		pred[s.Name] = s.Points
	}
	dd, cd := pred["DD pred"], pred["CD pred"]
	for i := range dd {
		if dd[i].Y <= cd[i].Y {
			t.Errorf("P=%v: predicted DD %v not above CD %v", dd[i].X, dd[i].Y, cd[i].Y)
		}
	}
	ddm, cdm := pred["DD meas"], pred["CD meas"]
	for i := range ddm {
		if ddm[i].Y <= cdm[i].Y {
			t.Errorf("P=%v: measured DD %v not above CD %v", ddm[i].X, ddm[i].Y, cdm[i].Y)
		}
	}
}

func TestAblateGBowl(t *testing.T) {
	res := runNamed(t, "ablate")
	var sweep []Point
	for _, s := range res.Series {
		if s.Name == "HD(G)" {
			sweep = s.Points
		}
	}
	if len(sweep) < 3 {
		t.Fatalf("G sweep has %d points", len(sweep))
	}
	// The best G is strictly better than at least one corner (the bowl).
	best := sweep[0].Y
	for _, pt := range sweep {
		if pt.Y < best {
			best = pt.Y
		}
	}
	cd, idd := sweep[0].Y, sweep[len(sweep)-1].Y
	if !(best < cd) && !(best < idd) {
		t.Errorf("no interior G beats both corners: best %v, G=1 %v, G=P %v", best, cd, idd)
	}
	// The communication ablation table must include every algorithm on
	// both machines plus the overlap rows.
	if len(res.TableRows) < 5+12+2 {
		t.Errorf("ablation table has only %d rows", len(res.TableRows))
	}
}

func TestHPAStudyCommunication(t *testing.T) {
	res := runNamed(t, "hpa")
	if len(res.TableRows) < 2 {
		t.Fatalf("only %d passes tabulated", len(res.TableRows))
	}
	series := map[string][]Point{}
	for _, s := range res.Series {
		series[s.Name] = s.Points
	}
	hpa, idd := series["hpa"], series["idd"]
	if len(hpa) != len(idd) || len(hpa) == 0 {
		t.Fatalf("series lengths: hpa %d, idd %d", len(hpa), len(idd))
	}
	// Section III-E: for k >= 3 HPA's volume exceeds IDD's.
	for i := range hpa {
		if hpa[i].X >= 3 && hpa[i].Y <= idd[i].Y {
			t.Errorf("pass %v: HPA bytes %v not above IDD %v", hpa[i].X, hpa[i].Y, idd[i].Y)
		}
	}
}

func TestFaultsOverheadShapes(t *testing.T) {
	res := runNamed(t, "faults")
	if len(res.Series) != 3 {
		t.Fatalf("want 3 algo series, got %d", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.Points) < 4 {
			t.Fatalf("%s: only %d fault configurations", s.Name, len(s.Points))
		}
		// Overhead never drops below 1: the fault-free baseline carries no
		// plan, while every sweep configuration (even the all-zero first
		// one) pays at least the pass-level checkpoint charges.
		for _, pt := range s.Points {
			if pt.Y < 1 {
				t.Errorf("%s cfg %v: overhead %v below 1", s.Name, pt.X, pt.Y)
			}
		}
		// The harshest configuration (last: max loss, max slowdown, crash)
		// must cost more than the gentlest.
		first, last := s.Points[0], s.Points[len(s.Points)-1]
		if last.Y <= first.Y {
			t.Errorf("%s: overhead did not grow across the sweep: %v -> %v", s.Name, first.Y, last.Y)
		}
	}
}

// TestAttribDecomposition checks the span-trace cost attribution: every
// tabulated pass accounts its time into the five categories, and DD's
// communication share exceeds CD's (the decomposition the experiment is
// for).  The reconciliation against cluster.Stats happens inside the
// experiment itself — a mismatch is returned as an error, so runNamed's
// Fatalf covers it.
func TestAttribDecomposition(t *testing.T) {
	res := runNamed(t, "attrib")
	if len(res.TableRows) < 4 {
		t.Fatalf("only %d rows", len(res.TableRows))
	}
	for _, row := range res.TableRows {
		if len(row) != len(res.TableHeader) {
			t.Fatalf("row %v has %d cells, header %d", row, len(row), len(res.TableHeader))
		}
	}
	// Quick mode runs CD and IDD; both must contribute a comm-share series
	// with at least one pass-k point.
	names := map[string]int{}
	for _, s := range res.Series {
		names[s.Name] = len(s.Points)
	}
	for _, want := range []string{"CD", "IDD"} {
		if names[want] == 0 {
			t.Errorf("series %q missing or empty (have %v)", want, names)
		}
	}
}

// TestFaultsDeterministic is the acceptance criterion for the sweep: two
// runs with the same Config must be bit-identical.
func TestFaultsDeterministic(t *testing.T) {
	a := runNamed(t, "faults")
	b := runFresh(t, "faults")
	if !reflect.DeepEqual(a, b) {
		t.Errorf("fault sweep not reproducible:\n%+v\n%+v", a, b)
	}
}

func TestWriteText(t *testing.T) {
	res := &Result{
		ID: "x", Title: "t", XLabel: "p", YLabel: "s",
		Series:      []Series{{Name: "A", Points: []Point{{1, 2}}}},
		TableHeader: []string{"a", "b"},
		TableRows:   [][]string{{"1", "2"}},
		Notes:       []string{"note"},
	}
	var sb strings.Builder
	if err := res.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"== x: t ==", "note", "A", "(1, 2)", "a", "1"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestConfigHelpers(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Scale != 1 || c.Seed == 0 { //checkinv:allow floatcmp default is exactly 1
		t.Errorf("defaults = %+v", c)
	}
	if got := (Config{Scale: 0.001}).scaled(1000); got != 100 {
		t.Errorf("scaled floor = %d", got)
	}
	full := Config{}.sweep([]int{1, 2, 3})
	if len(full) != 3 {
		t.Errorf("non-quick sweep trimmed: %v", full)
	}
	quick := Config{Quick: true}.sweep([]int{1, 2, 3, 4})
	if len(quick) != 2 || quick[0] != 1 || quick[1] != 4 {
		t.Errorf("quick sweep = %v", quick)
	}
	capped := Config{Quick: true, MaxP: 3}.sweep([]int{1, 2, 3, 4})
	if len(capped) != 2 || capped[0] != 1 || capped[1] != 3 {
		t.Errorf("capped sweep = %v", capped)
	}
	if floor := (Config{MaxP: 2}).sweep([]int{8, 16}); len(floor) != 1 || floor[0] != 8 {
		t.Errorf("over-capped sweep = %v", floor)
	}
}
