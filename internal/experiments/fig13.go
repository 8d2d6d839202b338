package experiments

import (
	"fmt"

	"parapriori/internal/core"
)

// Fig13 reproduces the speedup study of Figure 13: N and M fixed, P swept,
// measuring pass 3 only.  CD's speedup flattens because hash-tree
// construction and the global reduction stay O(M) no matter how many
// processors share the counting; IDD's flattens because of load imbalance
// with few candidates per processor; HD stays closest to linear.
func Fig13(c Config) (*Result, error) {
	c = c.withDefaults()
	n := c.scaled(24000)
	const minsup = 0.0025
	ps := c.sweep([]int{1, 2, 4, 8, 16, 32, 64})

	data, err := workload(c, n)
	if err != nil {
		return nil, err
	}

	res := &Result{
		ID:     "fig13",
		Title:  "Speedup vs processors (fixed N and M, pass 3 only)",
		XLabel: "processors",
		YLabel: "speedup",
		Notes: []string{
			fmt.Sprintf("workload: %d transactions, minsup %.3g, HD grid pinned to %d rows", n, minsup, hdRows),
			"paper: N=1.3M, M=0.7M, Cray T3E; HD grids 8x2, 8x4, 8x8 (Fig. 13)",
		},
		TableHeader: []string{"P", "CD", "IDD", "HD"},
	}
	series := seriesOf(trio)
	var baseline float64

	for _, p := range ps {
		tmpl := core.Params{P: p, Apriori: mineParams(minsup, 3), FixedG: fixedGFor(p)}
		reps, err := mineAt("fig13", fmt.Sprintf("P=%d", p), data, each(tmpl, trio...)...)
		if err != nil {
			return nil, err
		}
		row := []string{fmt.Sprintf("%d", p)}
		for i, rep := range reps {
			t := passOf(rep, 3).ResponseTime
			if p == ps[0] && i == 0 {
				// The P=1 CD run is the serial algorithm (plus a trivial
				// self-reduction): the speedup baseline.
				baseline = t * float64(ps[0])
			}
			sp := 0.0
			if t > 0 {
				sp = baseline / t
			}
			series[i].Points = append(series[i].Points, Point{X: float64(p), Y: sp})
			row = append(row, fmt.Sprintf("%.2f", sp))
		}
		res.TableRows = append(res.TableRows, row)
	}
	res.Series = series
	return res, nil
}
