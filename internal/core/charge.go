package core

import (
	"parapriori/internal/cluster"
	"parapriori/internal/countengine"
)

// The mining code performs the real work (hash-tree construction, subset
// counting) and then converts the *measured operation counts* into virtual
// time through the machine's cost constants.  This keeps the emulation
// honest: the time charged for a pass is a linear function of exactly the
// operations the paper's Section IV analysis counts, with no modeling of
// work that did not happen.

// chargeBuild converts candidate insertions into tree-construction time,
// the O(M) (CD) vs O(M/P) (IDD) term of the analysis.
func chargeBuild(p *cluster.Proc, inserts int64) {
	p.Compute(float64(inserts)*p.Machine().TInsert, "tree build")
}

// chargeGen charges the replicated apriori_gen work: every processor
// generates the full candidate set before keeping its share.
func chargeGen(p *cluster.Proc, generated int) {
	p.Compute(float64(generated)*p.Machine().TGen, "candidate gen")
}

// chargeScan charges per-item transaction touching work: F1 counting and
// the per-item bitmap filtering of IDD.
func chargeScan(p *cluster.Proc, items int64, phase string) {
	p.Compute(float64(items)*p.Machine().TItem, phase)
}

// chargeEngineBuild charges a counting engine's construction delta at
// t_insert — with the hashtree backend this is exactly chargeBuild on the
// tree's Inserts, so the seam charges bit-identical virtual time.
func chargeEngineBuild(p *cluster.Proc, delta countengine.Stats) {
	chargeBuild(p, delta.BuildOps)
}

// chargeEngineCount charges a counting delta: node navigation at t_travers
// plus candidate checks at t_check (the hash-tree terms, charged with the
// identical expression so the default engine's clock is unchanged), then
// contiguous-array navigation at t_array, bitmap word work at t_word, and
// per-item streaming work at t_item — operation kinds only the new
// backends spend.
func chargeEngineCount(p *cluster.Proc, delta countengine.Stats) {
	m := p.Machine()
	p.Compute(float64(delta.NodeSteps)*m.TTravers+float64(delta.CandChecks)*m.TCheck, "subset")
	if delta.ArraySteps > 0 {
		p.Compute(float64(delta.ArraySteps)*m.TArray, "subset")
	}
	if delta.WordOps > 0 {
		p.Compute(float64(delta.WordOps)*m.TWord, "subset")
	}
	if delta.ItemTouches > 0 {
		p.Compute(float64(delta.ItemTouches)*m.TItem, "subset")
	}
}
