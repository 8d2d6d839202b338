package experiments

import (
	"fmt"

	"parapriori/internal/core"
)

// HPAStudy reproduces the Section III-E comparison of HPA against IDD (and
// DD) that the paper argues analytically: HPA ships every transaction's
// potential candidates to their hash owners, so its communication volume is
// O(N·C(I,k)) per pass — possibly *below* IDD's O(N) transaction movement
// at k = 2, but far above it for k ≥ 3, where C(I,k) explodes.  The harness
// tabulates per-pass communication bytes and the end-to-end response times.
func HPAStudy(c Config) (*Result, error) {
	c = c.withDefaults()
	n := c.scaled(6000)
	p := c.procs(16)
	minsup := 24.0 / float64(n)

	data, err := workload(c, n)
	if err != nil {
		return nil, err
	}

	algos := []core.Algorithm{core.HPA, core.IDD, core.DD}
	tmpl := core.Params{P: p, Apriori: mineParams(minsup, 4)}
	reps, err := mineAt("hpa", fmt.Sprintf("P=%d", p), data, each(tmpl, algos...)...)
	if err != nil {
		return nil, err
	}

	res := &Result{
		ID:     "hpa",
		Title:  "HPA vs IDD vs DD: per-pass communication volume (Section III-E)",
		XLabel: "pass k",
		YLabel: "bytes moved",
		Notes: []string{
			fmt.Sprintf("workload: %d transactions, minsup %.3g, P=%d, passes 2-4", n, minsup, p),
			"paper: HPA ships O(N*C(I,k)) potential candidates; IDD ships O(N) transactions",
			fmt.Sprintf("response: HPA %.4fs, IDD %.4fs, DD %.4fs",
				reps[0].ResponseTime, reps[1].ResponseTime, reps[2].ResponseTime),
		},
		TableHeader: []string{"pass", "HPA bytes", "IDD bytes", "DD bytes", "HPA/IDD"},
	}

	series := make([]Series, len(algos))
	maxPass := 0
	for i, rep := range reps {
		series[i].Name = string(algos[i])
		maxPass = max(maxPass, len(rep.Passes))
	}
	for k := 2; k <= maxPass; k++ {
		hb, ib, db := passOf(reps[0], k).BytesMoved, passOf(reps[1], k).BytesMoved, passOf(reps[2], k).BytesMoved
		if hb == 0 && ib == 0 && db == 0 {
			continue
		}
		for i, b := range []int64{hb, ib, db} {
			series[i].Points = append(series[i].Points, Point{X: float64(k), Y: float64(b)})
		}
		ratio := "-"
		if ib > 0 {
			ratio = fmt.Sprintf("%.2f", float64(hb)/float64(ib))
		}
		res.TableRows = append(res.TableRows, []string{
			fmt.Sprintf("%d", k),
			fmt.Sprintf("%d", hb), fmt.Sprintf("%d", ib), fmt.Sprintf("%d", db),
			ratio,
		})
	}
	res.Series = series
	return res, nil
}
