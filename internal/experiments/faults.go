package experiments

import (
	"fmt"

	"parapriori/internal/cluster"
	"parapriori/internal/core"
)

// Faults measures what fault tolerance costs on the virtual clock: a sweep
// over message-loss rate × straggler slowdown × crash time, run for each
// grid formulation (CD, IDD, HD) against its own fault-free baseline.
//
// The reported overhead is ResponseTime(faulty) / ResponseTime(fault-free);
// the table adds the raw recovery accounting (restarts, retried/dropped
// messages, retry time, ranks lost).  Crash times are specified as a
// fraction of each algorithm's fault-free clock so the crash always lands
// mid-mining regardless of workload scale.  Everything is driven by the
// deterministic fault plan of package cluster: rerunning with the same
// Config reproduces the numbers bit for bit.
func Faults(c Config) (*Result, error) {
	c = c.withDefaults()
	n := c.scaled(2000)
	const minsup = 0.01
	const p = 8

	data, err := workload(c, n)
	if err != nil {
		return nil, err
	}

	// Fault-free baselines, one per formulation.
	tmpl := core.Params{P: p, Apriori: mineParams(minsup, 0), HDThreshold: 2000}
	base, err := mineAt("faults", "fault-free", data, each(tmpl, trio...)...)
	if err != nil {
		return nil, err
	}

	// The three fault axes.  A crash fraction of 0 means no crash; a
	// slowdown of 1 means no straggler.
	losses := []float64{0, 0.02, 0.08}
	slows := []float64{1, 4}
	crashes := []float64{0, 0.3}
	if c.Quick {
		losses = []float64{0, 0.08}
	}

	res := &Result{
		ID:     "faults",
		Title:  "Recovery overhead under loss/straggler/crash faults (CD, IDD, HD)",
		XLabel: "fault configuration #",
		YLabel: "response time / fault-free response time",
		Notes: []string{
			fmt.Sprintf("workload: %d transactions, minsup %.3g, P=%d, T3E model", n, minsup, p),
			"crash@ is the crash time as a fraction of the algorithm's fault-free clock (transient, rank 2)",
			"straggler: rank 1 slowed by the given factor from t=0; loss also duplicates and reorders at half the rate",
		},
		TableHeader: []string{"#", "loss", "slow", "crash@", "algo", "resp(s)", "overhead", "restarts", "retried", "dropped", "retry(s)", "lost"},
	}
	series := seriesOf(trio)

	cfg := 0
	for _, loss := range losses {
		for _, slow := range slows {
			for _, crashFrac := range crashes {
				cfg++
				prms := each(tmpl, trio...)
				for i := range prms {
					plan := &cluster.FaultPlan{
						Seed:    uint64(c.Seed)*1009 + uint64(cfg),
						Drop:    loss,
						Dup:     loss / 2,
						Reorder: loss / 2,
					}
					if slow > 1 {
						plan.Stragglers = []cluster.Straggler{{Rank: 1, At: 0, Factor: slow}}
					}
					if crashFrac > 0 {
						plan.Crashes = []cluster.Crash{{Rank: 2, At: crashFrac * base[i].ResponseTime}}
					}
					prms[i].Faults = plan
				}
				reps, err := mineAt("faults", fmt.Sprintf("cfg %d", cfg), data, prms...)
				if err != nil {
					return nil, err
				}
				for i, rep := range reps {
					over := rep.ResponseTime / base[i].ResponseTime
					series[i].Points = append(series[i].Points, Point{X: float64(cfg), Y: over})
					res.TableRows = append(res.TableRows, []string{
						fmt.Sprintf("%d", cfg),
						fmt.Sprintf("%.2f", loss),
						fmt.Sprintf("%.0fx", slow),
						fmt.Sprintf("%.2f", crashFrac),
						series[i].Name,
						fmt.Sprintf("%.4f", rep.ResponseTime),
						fmt.Sprintf("%.3f", over),
						fmt.Sprintf("%d", rep.Restarts),
						fmt.Sprintf("%d", rep.Total.MessagesRetried),
						fmt.Sprintf("%d", rep.Total.MessagesDropped),
						fmt.Sprintf("%.4f", rep.Total.RetryTime),
						fmt.Sprintf("%v", rep.LostRanks),
					})
				}
			}
		}
	}
	res.Series = series
	return res, nil
}
