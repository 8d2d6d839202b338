package experiments

import (
	"fmt"

	"parapriori/internal/analysis"
	"parapriori/internal/core"
)

// Model compares the Section IV cost equations with the emulated machine:
// for a fixed workload it tabulates, per processor count, the predicted
// and measured response times of CD, DD, IDD and HD (pass 3 only, where
// the equations apply cleanly), plus Equation 8's G window.  The model and
// the emulation share operation-cost constants but the model knows nothing
// about message schedules, so agreement in *shape* (ordering, trends)
// rather than absolute value is the check.
func Model(c Config) (*Result, error) {
	c = c.withDefaults()
	n := c.scaled(8000)
	// Support anchored to a fixed absolute count (see Fig14).
	minsup := 32.0 / float64(n)
	ps := c.sweep([]int{4, 8, 16, 32, 64})
	if c.Quick {
		// At reduced workloads 64 processors leave only a handful of
		// transactions per processor; compare at machine sizes where the
		// per-processor work is still meaningful.
		ps = []int{4, 16}
	}

	data, err := workload(c, n)
	if err != nil {
		return nil, err
	}

	res := &Result{
		ID:     "model",
		Title:  "Section IV cost model vs emulation (pass 3)",
		XLabel: "processors",
		YLabel: "response time (virtual s)",
		TableHeader: []string{
			"P", "CD pred", "CD meas", "DD pred", "DD meas",
			"IDD pred", "IDD meas", "HD pred", "HD meas",
		},
	}

	algos := []core.Algorithm{core.CD, core.DD, core.IDD, core.HD}
	predSeries := make([]Series, len(algos))
	measSeries := make([]Series, len(algos))
	for i, a := range algos {
		predSeries[i].Name = label(a) + " pred"
		measSeries[i].Name = label(a) + " meas"
	}
	var wl analysis.Workload

	for _, p := range ps {
		point := fmt.Sprintf("P=%d", p)
		tmpl := core.Params{P: p, Apriori: mineParams(minsup, 3), FixedG: fixedGFor(p)}
		reps, err := mineAt("model", point, data, each(tmpl, algos...)...)
		if err != nil {
			return nil, err
		}
		row := []string{fmt.Sprintf("%d", p)}
		for i, rep := range reps {
			// Derive the model workload symbols from the measured pass.
			pass := passOf(rep, 3)
			if pass.K != 3 {
				return nil, fmt.Errorf("model %s %s: no pass 3", label(algos[i]), point)
			}
			m := rep.Params.Machine
			wl = analysis.Workload{
				N: float64(data.Len()),
				M: float64(pass.Candidates),
				I: data.AvgLen(),
				K: 3,
				S: 16,
			}
			costs := analysis.Costs{
				TTravers: m.TTravers,
				TCheck:   m.TCheck,
				TInsert:  m.TInsert,
				TData:    float64(60) / m.Bandwidth, // ~60 bytes per transaction
				TReduce:  m.TReduce,
			}
			var pred float64
			switch algos[i] {
			case core.CD:
				pred = analysis.CD(wl, costs, float64(p))
			case core.DD:
				pred = analysis.DD(wl, costs, float64(p))
			case core.IDD:
				pred = analysis.IDD(wl, costs, float64(p))
			case core.HD:
				pred = analysis.HD(wl, costs, float64(p), float64(fixedGFor(p)))
			}
			predSeries[i].Points = append(predSeries[i].Points, Point{X: float64(p), Y: pred})
			measSeries[i].Points = append(measSeries[i].Points, Point{X: float64(p), Y: pass.ResponseTime})
			row = append(row, fmt.Sprintf("%.4f", pred), fmt.Sprintf("%.4f", pass.ResponseTime))
		}
		res.TableRows = append(res.TableRows, row)
	}
	lo, hi := analysis.GWindow(wl, float64(ps[len(ps)-1]))
	res.Notes = append(res.Notes,
		fmt.Sprintf("workload: %d transactions, minsup %.3g, pass 3; V(C,L) model with S=16", n, minsup),
		fmt.Sprintf("Equation 8 G window at P=%d: (%.3g, %.3g)", ps[len(ps)-1], lo, hi),
	)
	res.Series = append(append([]Series{}, predSeries...), measSeries...)
	return res, nil
}
