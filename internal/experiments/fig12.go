package experiments

import (
	"fmt"

	"parapriori/internal/cluster"
	"parapriori/internal/core"
)

// Fig12 reproduces Figure 12: response time on the 16-node IBM SP2 (disk-
// resident database) as the candidate count grows with falling minimum
// support.  CD's hash tree is capped at the per-node memory measured from
// the largest-support point, so at lower supports CD partitions the tree
// and rescans the database — paying tree-rebuild, extra I/O and extra
// reduction costs — while IDD and HD spread the candidates over the
// aggregate memory and pull ahead.  The paper reports CD falling behind by
// 8% at 1 M candidates up to 25% at 11 M.
func Fig12(c Config) (*Result, error) {
	c = c.withDefaults()
	n := c.scaled(4000)
	p := c.procs(16)
	minsups := []float64{0.006, 0.004, 0.003, 0.002, 0.0015}
	if c.Quick {
		minsups = []float64{0.006, 0.002}
	}

	data, err := workload(c, n)
	if err != nil {
		return nil, err
	}
	machine, _, err := capped(cluster.SP2(), "fig12", data, minsups[0], 0)
	if err != nil {
		return nil, err
	}

	res := &Result{
		ID:     "fig12",
		Title:  "Response time vs candidate count on the SP2 (CD pays multi-scan I/O)",
		XLabel: "total candidates",
		YLabel: "response time (virtual s)",
		Notes: []string{
			fmt.Sprintf("workload: %d transactions, P=%d, SP2 model, CD tree capped at %d bytes/node", n, p, machine.MemoryBytes),
			"paper: 100K transactions, 16-node SP2, minsup 0.1%..0.025% (Fig. 12)",
		},
		TableHeader: []string{"minsup", "candidates", "CD", "CD scans", "IDD", "HD"},
	}
	series := seriesOf(trio)

	for _, ms := range minsups {
		tmpl := core.Params{P: p, Machine: machine, Apriori: mineParams(ms, 0), HDThreshold: 2000}
		reps, err := mineAt("fig12", fmt.Sprintf("minsup=%g", ms), data, each(tmpl, trio...)...)
		if err != nil {
			return nil, err
		}
		m := float64(totalCandidates(reps[0]))
		for i, rep := range reps {
			series[i].Points = append(series[i].Points, Point{X: m, Y: rep.ResponseTime})
		}
		cd, idd, hd := reps[0], reps[1], reps[2]
		res.TableRows = append(res.TableRows, []string{
			fmt.Sprintf("%.4g", ms),
			fmt.Sprintf("%.0f", m),
			fmt.Sprintf("%.4f", cd.ResponseTime),
			fmt.Sprintf("%d", scans(cd)),
			fmt.Sprintf("%.4f", idd.ResponseTime),
			fmt.Sprintf("%.4f", hd.ResponseTime),
		})
	}
	res.Series = series
	return res, nil
}
