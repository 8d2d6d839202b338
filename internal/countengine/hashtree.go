package countengine

import (
	"parapriori/internal/bitmap"
	"parapriori/internal/hashtree"
	"parapriori/internal/itemset"
)

// The "hashtree" backend wraps the paper's candidate hash tree.  It is the
// compatibility baseline: the operation counters map one-to-one onto the
// tree's own (NodeSteps = Traversals, CandChecks = LeafChecks, CandVisits =
// LeafVisits, BuildOps = Inserts), so a run through the adapter charges
// exactly the virtual time a direct tree run charged and stays
// bit-identical to the pre-seam miner.

type hashtreeBuilder struct {
	cfg Config
}

func (b *hashtreeBuilder) Name() string { return "hashtree" }

func (b *hashtreeBuilder) NewPass(k int, cands []itemset.Itemset) (Engine, error) {
	return newPass(b, k, cands)
}

func (b *hashtreeBuilder) NewPassFlat(cands itemset.Flat) (Engine, error) {
	tree, err := hashtree.NewFlat(cands, b.cfg.Tree)
	if err != nil {
		return nil, err
	}
	return &hashtreeEngine{tree: tree}, nil
}

type hashtreeEngine struct {
	tree *hashtree.Tree
}

func (e *hashtreeEngine) Len() int { return e.tree.Len() }

func (e *hashtreeEngine) CountBlock(txns []itemset.Transaction, rootFilter *bitmap.Bitmap) {
	for _, t := range txns {
		e.tree.Subset(t.Items, rootFilter)
	}
}

func (e *hashtreeEngine) Counts() []int64 { return e.tree.Counts() }

func (e *hashtreeEngine) Stats() Stats {
	ts := e.tree.Stats()
	return Stats{
		BuildOps:     ts.Inserts,
		NodeSteps:    ts.Traversals,
		CandChecks:   ts.LeafChecks,
		CandVisits:   ts.LeafVisits,
		Transactions: ts.Transactions,
	}
}

func (e *hashtreeEngine) MemoryBytes() int { return e.tree.MemoryBytes() }
