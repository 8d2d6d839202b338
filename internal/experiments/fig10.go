package experiments

import (
	"fmt"

	"parapriori/internal/core"
)

// Fig10 reproduces the scaleup study of Figure 10: response time as the
// machine grows with a fixed number of transactions *per processor* and a
// fixed minimum support, for CD, DD, DD+comm, IDD and HD.
//
// The paper used 50 K transactions per processor at 0.1% support on the
// T3E; we default to a scaled-down per-processor load with the support
// chosen to keep candidate sets rich.  The expected shape: CD and HD stay
// nearly flat (HD below CD at large P), IDD drifts up with P (load
// imbalance, filtering overhead), DD grows steeply, and DD+comm sits
// between DD and IDD.
func Fig10(c Config) (*Result, error) {
	c = c.withDefaults()
	perProc := c.scaled(2000)
	const minsup = 0.01
	ps := c.sweep([]int{1, 2, 4, 8, 16, 32, 64, 128})
	// DD's emulation cost grows with P² (every processor processes every
	// transaction and every page crosses half the ring); the paper's own
	// DD curve is already off the chart well before 64.
	const ddMaxP = 16
	algos := []core.Algorithm{core.CD, core.DD, core.DDComm, core.IDD, core.HD}

	res := &Result{
		ID:     "fig10",
		Title:  "Scaleup: response time vs processors (fixed transactions/processor)",
		XLabel: "processors",
		YLabel: "response time (virtual s)",
		Notes: []string{
			fmt.Sprintf("workload: %d transactions/processor, minsup %.3g, T3E model", perProc, minsup),
			"paper: 50K transactions/processor, minsup 0.1%, Cray T3E (Fig. 10)",
		},
		TableHeader: []string{"P", "CD", "DD", "DD+comm", "IDD", "HD"},
	}
	series := seriesOf(algos)

	for _, p := range ps {
		data, err := workload(c, perProc*p)
		if err != nil {
			return nil, err
		}
		run := algos
		if p > ddMaxP {
			run = trio
		}
		tmpl := core.Params{P: p, Apriori: mineParams(minsup, 0), HDThreshold: 2000}
		reps, err := mineAt("fig10", fmt.Sprintf("P=%d", p), data, each(tmpl, run...)...)
		if err != nil {
			return nil, err
		}
		// reps follows algos with DD's columns skipped past ddMaxP.
		row := []string{fmt.Sprintf("%d", p)}
		for i, a := range algos {
			if len(reps) == 0 || reps[0].Params.Algo != a {
				row = append(row, "-")
				continue
			}
			rep := reps[0]
			reps = reps[1:]
			series[i].Points = append(series[i].Points, Point{X: float64(p), Y: rep.ResponseTime})
			row = append(row, fmt.Sprintf("%.4f", rep.ResponseTime))
		}
		res.TableRows = append(res.TableRows, row)
	}
	res.Series = series
	return res, nil
}

// Fig11 reproduces Figure 11: the average number of distinct hash-tree
// leaf nodes visited per transaction for DD vs IDD as P grows.  DD's
// V(C, L/P) barely falls with P — the redundant work — while IDD's
// V(C/P, L/P) drops by roughly a factor of P thanks to the bitmap pruning
// at the root.
func Fig11(c Config) (*Result, error) {
	c = c.withDefaults()
	perProc := c.scaled(1200)
	const minsup = 0.01 // the paper used 0.2%
	ps := c.sweep([]int{2, 4, 8, 16, 32})

	res := &Result{
		ID:     "fig11",
		Title:  "Average distinct leaf nodes visited per transaction (DD vs IDD)",
		XLabel: "processors",
		YLabel: "avg distinct leaves visited / transaction",
		Notes: []string{
			fmt.Sprintf("workload: %d transactions/processor, minsup %.3g", perProc, minsup),
			"paper: 50K transactions/processor, minsup 0.2% (Fig. 11)",
		},
		TableHeader: []string{"P", "DD", "IDD", "DD/IDD"},
	}
	dd := Series{Name: "DD"}
	idd := Series{Name: "IDD"}
	for _, p := range ps {
		data, err := workload(c, perProc*p)
		if err != nil {
			return nil, err
		}
		tmpl := core.Params{P: p, Apriori: mineParams(minsup, 0)}
		reps, err := mineAt("fig11", fmt.Sprintf("P=%d", p), data, each(tmpl, core.DD, core.IDD)...)
		if err != nil {
			return nil, err
		}
		dv, iv := reps[0].AvgLeafVisitsPerTxn(), reps[1].AvgLeafVisitsPerTxn()
		dd.Points = append(dd.Points, Point{X: float64(p), Y: dv})
		idd.Points = append(idd.Points, Point{X: float64(p), Y: iv})
		res.TableRows = append(res.TableRows, []string{
			fmt.Sprintf("%d", p), fmt.Sprintf("%.3f", dv), fmt.Sprintf("%.3f", iv),
			fmt.Sprintf("%.2f", dv/iv),
		})
	}
	res.Series = []Series{dd, idd}
	return res, nil
}
