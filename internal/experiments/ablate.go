package experiments

import (
	"fmt"

	"parapriori/internal/analysis"
	"parapriori/internal/cluster"
	"parapriori/internal/core"
)

// Ablate exercises the design decisions DESIGN.md calls out, beyond what the
// paper's own figures isolate:
//
//  1. HD's G knob — response time across every divisor of P, showing the
//     bowl between the CD corner (G=1) and the IDD corner (G=P) and checking
//     it against Equation 8's window;
//  2. communication ablation — each algorithm on the T3E model vs an Ideal
//     machine with free communication, separating communication overhead
//     (including DD's contention and blocking sends) from computation
//     (redundant work, load imbalance);
//  3. overlap ablation — IDD with and without compute/communication overlap
//     hardware, the paper's "system that cannot perform asynchronous
//     communication" remark.
func Ablate(c Config) (*Result, error) {
	c = c.withDefaults()
	n := c.scaled(8000)
	p := c.procs(16)
	minsup := 24.0 / float64(n)

	data, err := workload(c, n)
	if err != nil {
		return nil, err
	}

	res := &Result{
		ID:     "ablate",
		Title:  "Design ablations: G sweep, communication-free baseline, overlap",
		XLabel: "G (grid rows)",
		YLabel: "response time (virtual s)",
		Notes: []string{
			fmt.Sprintf("workload: %d transactions, minsup %.3g, P=%d", n, minsup, p),
		},
	}

	tmpl := core.Params{P: p, Apriori: mineParams(minsup, 3)}

	// 1. G sweep for HD.
	gSweep := Series{Name: "HD(G)"}
	for g := 1; g <= p; g++ {
		if p%g != 0 {
			continue
		}
		hd := tmpl
		hd.Algo, hd.FixedG = core.HD, g
		reps, err := mineAt("ablate", fmt.Sprintf("G=%d", g), data, hd)
		if err != nil {
			return nil, err
		}
		t := passOf(reps[0], 3).ResponseTime
		gSweep.Points = append(gSweep.Points, Point{X: float64(g), Y: t})
		res.TableRows = append(res.TableRows, []string{fmt.Sprintf("HD G=%d", g), fmt.Sprintf("%.4f", t)})
	}
	res.Series = append(res.Series, gSweep)

	// Equation 8's window for this workload.
	reps, err := mineAt("ablate", "for Equation 8", data, each(tmpl, core.CD)...)
	if err != nil {
		return nil, err
	}
	m3 := passOf(reps[0], 3).Candidates
	_, hi := analysis.GWindow(analysis.Workload{N: float64(n), M: float64(m3)}, float64(p))
	res.Notes = append(res.Notes, fmt.Sprintf("Equation 8 window for pass 3 (M=%d): G in (1, %.3g)", m3, hi))

	// 2. Communication ablation: T3E vs Ideal for each algorithm.
	res.TableHeader = []string{"configuration", "response (s)"}
	for _, algo := range []core.Algorithm{core.CD, core.DD, core.DDComm, core.IDD, core.HD, core.HPA} {
		for _, machine := range []cluster.Machine{cluster.T3E(), cluster.Ideal()} {
			on := tmpl
			on.Machine = machine
			reps, err := mineAt("ablate", "on "+machine.Name, data, each(on, algo)...)
			if err != nil {
				return nil, err
			}
			res.TableRows = append(res.TableRows, []string{
				fmt.Sprintf("%s on %s", algo, machine.Name),
				fmt.Sprintf("%.4f", reps[0].ResponseTime),
			})
		}
	}

	// 3. Overlap ablation for IDD.
	for _, overlap := range []bool{true, false} {
		on := tmpl
		on.Machine = cluster.T3E()
		on.Machine.Overlap = overlap
		reps, err := mineAt("ablate", fmt.Sprintf("overlap=%v", overlap), data, each(on, core.IDD)...)
		if err != nil {
			return nil, err
		}
		res.TableRows = append(res.TableRows, []string{
			fmt.Sprintf("IDD overlap=%v", overlap),
			fmt.Sprintf("%.4f", reps[0].ResponseTime),
		})
	}
	return res, nil
}
