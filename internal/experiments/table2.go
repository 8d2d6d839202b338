package experiments

import (
	"fmt"

	"parapriori/internal/apriori"
	"parapriori/internal/core"
)

// Table2 reproduces Table II: the processor-grid configuration HD chooses
// at every pass, driven by the candidate count and the threshold m.  The
// paper ran 64 processors with m = 50 K; our threshold is derived from the
// measured pass-2 candidate volume so the dynamic behaviour — a wide grid
// while candidates are plentiful, collapsing to pure CD (1×P) as they thin
// out — shows at the scaled-down workload too.
func Table2(c Config) (*Result, error) {
	c = c.withDefaults()
	n := c.scaled(6000)
	p := c.procs(64)
	const minsup = 0.003

	data, err := workload(c, n)
	if err != nil {
		return nil, err
	}
	// Size the threshold from the serial candidate profile, as a user
	// sizing m to their machine's memory would.
	pre, err := apriori.Mine(data, apriori.Params{MinSupport: minsup, MaxPasses: 2})
	if err != nil {
		return nil, fmt.Errorf("table2 pre-pass: %w", err)
	}
	m2 := 1
	if len(pre.Passes) >= 2 {
		m2 = pre.Passes[1].Candidates
	}
	threshold := m2 / 8
	if threshold < 1 {
		threshold = 1
	}

	rep, err := core.Mine(data, core.Params{
		Algo:        core.HD,
		P:           p,
		Apriori:     mineParams(minsup, 0),
		HDThreshold: threshold,
	})
	if err != nil {
		return nil, fmt.Errorf("table2: %w", err)
	}

	res := &Result{
		ID:    "table2",
		Title: "HD processor configuration and candidates per pass",
		Notes: []string{
			fmt.Sprintf("workload: %d transactions, minsup %.3g, P=%d, m=%d", n, minsup, p, threshold),
			"paper: 64 processors, m=50K; configurations 8x8, 64x1, 4x16, 2x32, 2x32, 1x64 (Table II)",
			"GxC means G candidate partitions (rows) by C transaction groups (columns); G=1 is CD, G=P is IDD",
		},
		TableHeader: []string{"pass", "configuration", "candidates", "frequent"},
	}
	for _, pass := range rep.Passes {
		if pass.K < 2 {
			continue
		}
		res.TableRows = append(res.TableRows, []string{
			fmt.Sprintf("%d", pass.K),
			fmt.Sprintf("%dx%d", pass.GridRows, pass.GridCols),
			fmt.Sprintf("%d", pass.Candidates),
			fmt.Sprintf("%d", pass.Frequent),
		})
	}
	return res, nil
}
