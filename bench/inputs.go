package main

import (
	"math/rand"

	"parapriori/internal/datagen"
	"parapriori/internal/itemset"
)

// genSeed seeds the Quest generator on every run.  The pattern table decides
// how much work a workload is (a few heavy patterns decide how many itemsets
// are frequent: the rule count moved twentyfold from one generator seed to
// the next), so it is held fixed and the run's seed chooses the transactions
// drawn from it.  Runs on different seeds then do comparable work on
// different inputs.
const genSeed = 7

// wideGen is the paper's T15.I6 over 1 000 items and 2 000 patterns.
func wideGen(n int) datagen.Params {
	g := datagen.Defaults()
	g.NumTransactions, g.Seed = n, genSeed
	return g
}

// narrowGen is T12.I4 over 300 items and 200 patterns: what mine-ooc mines
// and what the serve-* rule sets are mined from.
func narrowGen(n int) datagen.Params {
	g := wideGen(n)
	g.NumItems, g.NumPatterns, g.AvgTxnLen, g.AvgPatternLen = 300, 200, 12, 4
	return g
}

// stream is a workload's transaction source: the generator's fixed stream of
// N + N/8 transactions with a run of N/8 left out, the run's seed choosing
// where.  Every seed costs the same to generate and yields N transactions,
// renumbered from 0.  It is re-streamable and never resident.
type stream struct {
	p    datagen.Params
	hole int // the first transaction left out
}

func newStream(p datagen.Params, seed int64) stream {
	return stream{p: p, hole: rand.New(rand.NewSource(seed)).Intn(p.NumTransactions)}
}

// generated is how many transactions one pass over the stream generates.
func (s stream) generated() int { return s.p.NumTransactions + s.p.NumTransactions/8 }

// Info implements itemset.Source.  Bytes, the modeled size the virtual disk
// charges for, is left 0: sizing it would cost another generation pass and
// nothing here scans a stream on the virtual clock.
func (s stream) Info() itemset.SourceInfo {
	return itemset.SourceInfo{NumItems: s.p.NumItems, NumTxns: s.p.NumTransactions}
}

// Blocks implements itemset.Source.
func (s stream) Blocks(fn func([]itemset.Transaction) error) error {
	g, err := datagen.New(s.p)
	if err != nil {
		return err
	}
	gap := s.generated() - s.p.NumTransactions
	block := make([]itemset.Transaction, 0, 4096)
	for i := 0; i < s.generated(); i++ {
		t := g.Next()
		if i >= s.hole && i < s.hole+gap {
			continue
		}
		t.ID = int64(i)
		if i >= s.hole {
			t.ID -= int64(gap)
		}
		block = append(block, t)
		if len(block) == cap(block) {
			if err := fn(block); err != nil {
				return err
			}
			block = block[:0]
		}
	}
	if len(block) > 0 {
		return fn(block)
	}
	return nil
}
