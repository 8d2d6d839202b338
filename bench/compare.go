package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// verdict judges one end-to-end metric on one workload: b against a.
//
//   - regressed: b's median is worse than a's by more than the bound;
//   - unresolved: either side's quartiles are further apart than the bound
//     allows, so the medians cannot carry a verdict — unless every run of b
//     reads better than every run of a, which is ok whatever the spread;
//   - ok otherwise.
func verdict(a, b []float64, higherIsBetter bool, bound float64) string {
	q1a, ma, q3a := quartiles(a)
	q1b, mb, q3b := quartiles(b)
	worse := (mb - ma) / ma // share of a's median by which b is worse
	if higherIsBetter {
		worse = (ma - mb) / ma
	}
	sa, sb := sortedCopy(a), sortedCopy(b)
	allBetter := sb[len(sb)-1] < sa[0]
	if higherIsBetter {
		allBetter = sb[0] > sa[len(sa)-1]
	}
	switch {
	case allBetter:
		return "ok"
	case (q3a-q1a)/ma > bound || (q3b-q1b)/mb > bound:
		return "unresolved"
	case worse > bound:
		return "regressed"
	}
	return "ok"
}

// compareFiles prints one row per workload and end-to-end metric, then the
// exact per-layer counts that differ, and reports whether anything regressed.
func compareFiles(w io.Writer, sp *spec, pathA, pathB string) (bool, error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	regressed := false
	fmt.Fprintf(w, "%-12s %-18s %12s %25s %12s %25s %18s %6s  %s\n",
		"workload", "metric", "a median", "a quartiles", "b median", "b quartiles", "b/a", "bound", "verdict")
	for _, wl := range sp.Workloads {
		wa, wb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if wa == nil || wb == nil || len(wa.Runs) == 0 || len(wb.Runs) == 0 {
			return false, fmt.Errorf("workload %s is missing from one of the files", wl.Name)
		}
		for _, m := range sp.EndToEnd {
			va, vb := column(wa.Runs, m.Name), column(wb.Runs, m.Name)
			if len(va) != len(wa.Runs) || len(vb) != len(wb.Runs) {
				return false, fmt.Errorf("%s: metric %s is missing from a run", wl.Name, m.Name)
			}
			v := verdict(va, vb, m.Better == "higher", *m.Bound)
			regressed = regressed || v == "regressed"
			q1a, ma, q3a := quartiles(va)
			q1b, mb, q3b := quartiles(vb)
			fmt.Fprintf(w, "%-12s %-18s %12.6g %25s %12.6g %25s %18s %6.2f  %s\n", wl.Name, m.Name,
				ma, fmt.Sprintf("[%.6g, %.6g]", q1a, q3a), mb, fmt.Sprintf("[%.6g, %.6g]", q1b, q3b),
				fmt.Sprintf("%.4f of %.6g", mb/ma, ma), *m.Bound, v)
		}
		fa, fb := float64(wa.Failed)/float64(max(wa.Attempted, 1)), float64(wb.Failed)/float64(max(wb.Attempted, 1))
		v := "ok"
		if fb > fa {
			v, regressed = "regressed", true
		}
		fmt.Fprintf(w, "%-12s %-18s %12.6g %25s %12.6g %25s %18s %6.2f  %s\n", wl.Name, "failed_share", fa, "", fb, "", "", 0.0, v)
	}

	if a.Seed != b.Seed {
		fmt.Fprintf(w, "exact counts not compared: the files come from seeds %d and %d\n", a.Seed, b.Seed)
		return regressed, nil
	}
	same, differ := 0, []string{}
	for _, wl := range sp.Workloads {
		la, lb := a.Workloads[wl.Name].Layers, b.Workloads[wl.Name].Layers
		for _, lm := range layerMetrics {
			if !lm.exact {
				continue
			}
			if la[lm.name] == lb[lm.name] {
				same++
			} else {
				differ = append(differ, fmt.Sprintf("%s %s: %v != %v", wl.Name, lm.name, la[lm.name], lb[lm.name]))
			}
		}
	}
	sort.Strings(differ)
	fmt.Fprintf(w, "exact counts: %d identical, %d differ\n", same, len(differ))
	for _, d := range differ {
		fmt.Fprintln(w, "  differs:", d)
	}
	return regressed, nil
}

func column(runs []map[string]float64, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r[name]; ok {
			out = append(out, v)
		}
	}
	return out
}
