package experiments

import (
	"fmt"

	"parapriori/internal/cluster"
	"parapriori/internal/core"
)

// Fig15 reproduces Figure 15: runtime as the candidate count grows (by
// lowering minimum support) with N and P fixed at 64 processors, pass 3
// measured.  CD's memory holds only the base candidate volume, so larger M
// forces partitioned counting and its curve climbs as O(M); IDD and HD
// spread candidates across the aggregate memory (O(M/P), O(M/G)) and
// eventually overtake CD — HD collapsing onto IDD once G reaches P,
// matching the caption's 8×8 → 16×4 → 32×2 → 64×1 progression.
func Fig15(c Config) (*Result, error) {
	c = c.withDefaults()
	n := c.scaled(16000)
	p := c.procs(64)
	minsups := []float64{0.006, 0.004, 0.003, 0.002, 0.0015, 0.001}
	if c.Quick {
		minsups = []float64{0.006, 0.002}
	}

	data, err := workload(c, n)
	if err != nil {
		return nil, err
	}
	machine, baseM, err := capped(cluster.T3E(), "fig15", data, minsups[0], 3)
	if err != nil {
		return nil, err
	}
	// HD threshold sized so the base point runs an 8-row grid and larger
	// candidate volumes widen it toward pure IDD, like the caption's
	// progression.
	threshold := max(baseM/8, 1)

	res := &Result{
		ID:     "fig15",
		Title:  "Runtime vs candidate count (fixed N, P=64, pass 3 only)",
		XLabel: "total candidates",
		YLabel: "response time (virtual s)",
		Notes: []string{
			fmt.Sprintf("workload: %d transactions, P=%d, CD tree capped at %d bytes/node, HD m=%d", n, p, machine.MemoryBytes, threshold),
			"paper: M=0.7M..8M, N=1.3M, P=64; HD grids 8x8..64x1 (Fig. 15)",
		},
		TableHeader: []string{"minsup", "candidates", "CD", "CD scans", "IDD", "HD", "HD grid"},
	}
	series := seriesOf(trio)

	for _, ms := range minsups {
		tmpl := core.Params{P: p, Machine: machine, Apriori: mineParams(ms, 3), HDThreshold: threshold}
		reps, err := mineAt("fig15", fmt.Sprintf("minsup=%g", ms), data, each(tmpl, trio...)...)
		if err != nil {
			return nil, err
		}
		m := float64(totalCandidates(reps[0]))
		for i, rep := range reps {
			series[i].Points = append(series[i].Points, Point{X: m, Y: passOf(rep, 3).ResponseTime})
		}
		cd, idd, hd := passOf(reps[0], 3), passOf(reps[1], 3), passOf(reps[2], 3)
		grid := ""
		if hd.K == 3 {
			grid = fmt.Sprintf("%dx%d", hd.GridRows, hd.GridCols)
		}
		res.TableRows = append(res.TableRows, []string{
			fmt.Sprintf("%.4g", ms),
			fmt.Sprintf("%.0f", m),
			fmt.Sprintf("%.4f", cd.ResponseTime),
			fmt.Sprintf("%d", scans(reps[0])),
			fmt.Sprintf("%.4f", idd.ResponseTime),
			fmt.Sprintf("%.4f", hd.ResponseTime),
			grid,
		})
	}
	res.Series = series
	return res, nil
}
