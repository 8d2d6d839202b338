package experiments

import (
	"fmt"

	"parapriori/internal/core"
)

// Fig14 reproduces Figure 14: runtime as the transaction count grows with
// M and P fixed (P = 64, HD pinned to an 8×8 grid, pass 3 measured).  CD
// and HD scale linearly in N; IDD's curve rises faster because its load
// imbalance and O(N) transaction movement are paid by every processor.
func Fig14(c Config) (*Result, error) {
	c = c.withDefaults()
	base := c.scaled(8000)
	p := c.procs(64)
	// Anchor the support fraction to a fixed absolute count at the base N
	// so that scaled-down runs keep the same noise floor; the fraction is
	// then held constant across the N sweep, which is what keeps M fixed.
	minsup := 32.0 / float64(base)
	mults := []int{1, 2, 4, 8, 16, 20}
	if c.Quick {
		mults = []int{1, 4}
	}

	res := &Result{
		ID:     "fig14",
		Title:  "Runtime vs transactions (fixed M, P=64, pass 3 only)",
		XLabel: "transactions",
		YLabel: "response time (virtual s)",
		Notes: []string{
			fmt.Sprintf("workload: N swept %dx..%dx of %d transactions, minsup %.3g, HD grid 8x8", mults[0], mults[len(mults)-1], base, minsup),
			"paper: N=1.3M..26.1M, M=0.7M, P=64, HD 8x8 (Fig. 14)",
		},
		TableHeader: []string{"N", "CD", "IDD", "HD"},
	}
	series := seriesOf(trio)

	for _, mult := range mults {
		n := base * mult
		data, err := workload(c, n)
		if err != nil {
			return nil, err
		}
		tmpl := core.Params{P: p, Apriori: mineParams(minsup, 3), FixedG: fixedGFor(p)}
		reps, err := mineAt("fig14", fmt.Sprintf("N=%d", n), data, each(tmpl, trio...)...)
		if err != nil {
			return nil, err
		}
		row := []string{fmt.Sprintf("%d", n)}
		for i, rep := range reps {
			t := passOf(rep, 3).ResponseTime
			series[i].Points = append(series[i].Points, Point{X: float64(n), Y: t})
			row = append(row, fmt.Sprintf("%.4f", t))
		}
		res.TableRows = append(res.TableRows, row)
	}
	res.Series = series
	return res, nil
}
