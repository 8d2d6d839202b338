package experiments

import (
	"fmt"

	"parapriori/internal/core"
	"parapriori/internal/obsv"
)

// Attrib decomposes each formulation's runtime pass by pass from its span
// trace: per-pass compute, send and idle totals plus the critical path (the
// busiest rank's non-idle time — the lower bound on the pass under perfect
// communication).  This is the measured counterpart of the paper's
// qualitative argument for why IDD and HD beat DD: the decomposition shows
// *where* DD's time goes (send and idle during the all-to-all shift) rather
// than just that it is slower.  The trace totals are cross-checked against
// the cluster's own Stats, so the table is guaranteed to account for every
// virtual second the machine spent.
func Attrib(c Config) (*Result, error) {
	c = c.withDefaults()
	n := c.scaled(4000)
	minsup := 24.0 / float64(n)
	p := c.procs(16)

	data, err := workload(c, n)
	if err != nil {
		return nil, err
	}

	res := &Result{
		ID:     "attrib",
		Title:  "Per-pass cost attribution from span traces",
		XLabel: "pass k",
		YLabel: "communication share of pass (send / non-idle)",
		TableHeader: []string{
			"algo", "pass", "compute", "io", "send", "idle", "elapsed", "critpath", "wait",
		},
	}

	algos := []core.Algorithm{core.CD, core.DD, core.IDD, core.HD}
	if c.Quick {
		algos = []core.Algorithm{core.CD, core.IDD}
	}

	for _, a := range algos {
		rec := obsv.NewCollector(obsv.ClockVirtual)
		reps, err := mineAt("attrib", fmt.Sprintf("P=%d", p), data, core.Params{
			Algo:     a,
			P:        p,
			Apriori:  mineParams(minsup, 4),
			Recorder: rec,
		})
		if err != nil {
			return nil, err
		}
		rep := reps[0]

		costs := obsv.Attribution(rec.Trace())
		series := Series{Name: label(a)}
		for _, pc := range costs {
			pass := "other"
			if pc.Pass >= 0 {
				pass = fmt.Sprintf("k=%d", pc.Pass)
			}
			res.TableRows = append(res.TableRows, []string{
				series.Name, pass,
				fmt.Sprintf("%.4f", pc.Compute),
				fmt.Sprintf("%.4f", pc.IO),
				fmt.Sprintf("%.4f", pc.Send),
				fmt.Sprintf("%.4f", pc.Idle),
				fmt.Sprintf("%.4f", pc.Elapsed),
				fmt.Sprintf("%.4f", pc.CriticalPath),
				fmt.Sprintf("%.4f", pc.Elapsed-pc.CriticalPath),
			})
			if busy := pc.Compute + pc.IO + pc.Send + pc.Retry; pc.Pass >= 2 && busy > 0 {
				series.Points = append(series.Points, Point{X: float64(pc.Pass), Y: pc.Send / busy})
			}
		}
		res.Series = append(res.Series, series)

		// The attribution must account for every virtual second the cluster
		// charged; a mismatch means spans were dropped or double-counted.
		tot := obsv.TotalCost(costs)
		const tol = 1e-6
		if d := tot.Compute - rep.Total.ComputeTime; d > tol || d < -tol {
			return nil, fmt.Errorf("attrib %s: compute mismatch: trace %.9f vs stats %.9f",
				series.Name, tot.Compute, rep.Total.ComputeTime)
		}
		if d := tot.Send - rep.Total.SendTime; d > tol || d < -tol {
			return nil, fmt.Errorf("attrib %s: send mismatch: trace %.9f vs stats %.9f",
				series.Name, tot.Send, rep.Total.SendTime)
		}
		if d := tot.Idle - rep.Total.IdleTime; d > tol || d < -tol {
			return nil, fmt.Errorf("attrib %s: idle mismatch: trace %.9f vs stats %.9f",
				series.Name, tot.Idle, rep.Total.IdleTime)
		}
	}

	res.Notes = append(res.Notes,
		fmt.Sprintf("workload: %d transactions, minsup %.3g, P=%d, passes ≤ 4", n, minsup, p),
		"trace category totals reconcile with cluster.Stats (checked to 1e-6)",
		"wait = elapsed - critpath: pass time not explained by the busiest rank",
	)
	return res, nil
}
