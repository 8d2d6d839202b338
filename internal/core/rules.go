package core

import (
	"fmt"
	"slices"

	"parapriori/internal/apriori"
	"parapriori/internal/cluster"
	"parapriori/internal/partition"
	"parapriori/internal/rules"
)

// RulesReport is the outcome of parallel rule generation.
type RulesReport struct {
	Rules []rules.Rule
	// ResponseTime is the virtual time of the generation step.
	ResponseTime float64
	// Evaluated is the total number of candidate rules tested.
	Evaluated int64
	// TimeImbalance is (max-mean)/mean of per-processor generation time.
	TimeImbalance float64
}

// GenerateRules parallelizes the second step of association-rule discovery
// exactly the way [6] suggests and the paper calls "straightforward"
// (Section II): every processor holds the complete frequent-itemset index
// (it does at the end of any formulation's run), the frequent itemsets of
// size >= 2 are dealt round-robin, each processor runs ap-genrules on its
// share, and the rules are collected with an all-to-all broadcast.
//
// It runs on a fresh emulated cluster of p processors with the given
// machine model (zero value: T3E) and returns the same rules as the serial
// rules.Generate, in the same order.
func GenerateRules(res *apriori.Result, p int, machine cluster.Machine, minConfidence float64) (*RulesReport, error) {
	if p < 1 {
		p = 1
	}
	if machine.Name == "" {
		machine = cluster.T3E()
	}
	if err := (rules.Params{MinConfidence: minConfidence}).Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	cl, err := cluster.New(p, machine)
	if err != nil {
		return nil, err
	}
	world := cl.World()

	// The itemsets rules can come from, in a deterministic global order.
	var sources []apriori.Frequent
	for size, level := range res.Levels {
		if size+1 < 2 {
			continue
		}
		sources = append(sources, level...)
	}
	support := res.SupportTable()
	n := float64(res.N)

	var all []rules.Rule
	evaluated := make([]int64, p)
	genTime := make([]float64, p)
	runErr := cl.Run(func(pr *cluster.Proc) error {
		start := pr.Clock()
		g := rules.NewGenerator(support, n, minConfidence)
		// Round-robin deal, the same balance-by-count strategy DD uses for
		// candidates; rule work per itemset varies, which the report's
		// imbalance measure exposes.
		for i := pr.ID(); i < len(sources); i += p {
			g.FromItemset(sources[i])
		}
		m := pr.Machine()
		pr.Compute(float64(g.Evaluated)*(m.TGen+m.TCheck), "rulegen")
		genTime[pr.ID()] = pr.Clock() - start
		evaluated[pr.ID()] = g.Evaluated

		local := g.Rules()
		bytes := 0
		for _, r := range local {
			bytes += 4*(len(r.Antecedent)+len(r.Consequent)) + 24
		}
		gathered := world.AllGather(pr, "rules", local, bytes)
		// Every processor now holds every rule; the host assembles and
		// sorts one copy, rank 0's.
		if pr.ID() == 0 {
			parts := make([][]rules.Rule, len(gathered))
			for i, gp := range gathered {
				parts[i] = gp.Payload.([]rules.Rule)
			}
			all = slices.Concat(parts...)
			rules.Sort(all)
		}
		return nil
	})
	if runErr != nil {
		return nil, runErr
	}

	rep := &RulesReport{
		Rules:         all,
		ResponseTime:  cl.MaxClock(),
		TimeImbalance: partition.Imbalance(genTime),
	}
	for _, ev := range evaluated {
		rep.Evaluated += ev
	}
	return rep, nil
}
