// Package countengine defines the pluggable support-counting seam of the
// miner: build a structure over the size-k candidates, stream transaction
// blocks through it, emit the support counts.  There are three backends, a
// fixed table (backends):
//
//   - "hashtree": an adapter over the paper's candidate hash tree
//     (internal/hashtree), the compatibility baseline.  Bit-identical
//     operation counts and results to calling the tree directly.
//   - "trie": items remapped to dense ints and candidates stored in a flat
//     prefix-compressed trie of contiguous per-level arrays — no per-node
//     allocation, no pointer chasing, and no failed leaf checks (a matched
//     leaf *is* a contained candidate).
//   - "bitset": the vertical representation — per-item transaction-ID
//     bitmaps built while streaming, or carried from the previous pass's
//     engine over the same transactions (Carrier), support computed by
//     bitmap intersection and popcount instead of subset enumeration.
//
// All backends produce identical counts; they differ only in which abstract
// operations (Stats) they spend, which is what the virtual-time cost model
// charges.
package countengine

import (
	"fmt"
	"sort"

	"parapriori/internal/bitmap"
	"parapriori/internal/hashtree"
	"parapriori/internal/itemset"
)

// Default is the engine used when no name is configured — the paper's hash
// tree, so existing runs are unchanged.
const Default = "hashtree"

// Stats counts the abstract operations a backend performed, in the units of
// the Section IV cost model: NodeSteps is charged at t_travers, ArraySteps
// at t_array, CandChecks at t_check, WordOps at t_word, ItemTouches at
// t_item, and BuildOps at t_insert.  A backend only spends the operation
// kinds it actually performs, so the virtual time charged for a pass
// reflects the work the chosen structure really did.
type Stats struct {
	// BuildOps is the structure-construction work: hash-tree candidate
	// inserts, trie nodes materialized, bitmap columns registered.
	BuildOps int64
	// NodeSteps is pointer-chasing navigation work: hash steps down an
	// allocated-node tree, where each step risks a cache miss.
	NodeSteps int64
	// ArraySteps is contiguous-array navigation work: trie merge-join
	// comparisons and gallop probes over flat per-level arrays.  The same
	// abstract role as NodeSteps, but charged at the cheaper t_array
	// because the access pattern is sequential over packed int32 arrays.
	ArraySteps int64
	// CandChecks is candidate-vs-transaction containment work: hash-tree
	// leaf checks, trie leaf matches.
	CandChecks int64
	// WordOps is 64-bit bitmap word operations (AND + popcount), the
	// bitset backend's unit of counting work.
	WordOps int64
	// ItemTouches is per-item streaming work: dense remapping, bitmap
	// column appends.
	ItemTouches int64
	// CandVisits is the number of candidate-holding slots visited; for the
	// hash tree this is distinct leaf visits (Figure 11's V).
	CandVisits int64
	// Transactions is the number of transactions streamed through
	// CountBlock.
	Transactions int64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.BuildOps += other.BuildOps
	s.NodeSteps += other.NodeSteps
	s.ArraySteps += other.ArraySteps
	s.CandChecks += other.CandChecks
	s.WordOps += other.WordOps
	s.ItemTouches += other.ItemTouches
	s.CandVisits += other.CandVisits
	s.Transactions += other.Transactions
}

// Delta returns after - before, the operations spent between two snapshots.
func Delta(before, after Stats) Stats {
	return Stats{
		BuildOps:     after.BuildOps - before.BuildOps,
		NodeSteps:    after.NodeSteps - before.NodeSteps,
		ArraySteps:   after.ArraySteps - before.ArraySteps,
		CandChecks:   after.CandChecks - before.CandChecks,
		WordOps:      after.WordOps - before.WordOps,
		ItemTouches:  after.ItemTouches - before.ItemTouches,
		CandVisits:   after.CandVisits - before.CandVisits,
		Transactions: after.Transactions - before.Transactions,
	}
}

// Engine counts the supports of one pass's candidate set.  Engines are not
// goroutine-safe; each SPMD processor builds its own via Builder.NewPassFlat.
type Engine interface {
	// Len returns the number of candidates the engine was built over.
	Len() int
	// CountBlock streams a block of transactions through the engine.
	// rootFilter, if non-nil, restricts counting to candidates whose
	// *first* item's bit is set (IDD's bitmap pruning); backends whose
	// candidate set is already restricted to passing candidates may ignore
	// it.
	CountBlock(txns []itemset.Transaction, rootFilter *bitmap.Bitmap)
	// Counts returns the support counts in the candidate order the engine
	// was built with — the order CD's count-vector reduction depends on.
	// Deferred backends (bitset) do their counting work here, so callers
	// must snapshot Stats around the call to charge it.
	//
	// The vector is the engine's own, handed over, not copied: the caller
	// may keep and read it, and a later CountBlock counts on into it, so a
	// caller that wants a snapshot between blocks clones it.
	Counts() []int64
	// Stats returns the accumulated operation counters.
	Stats() Stats
	// MemoryBytes estimates the resident size of the structure.
	MemoryBytes() int
}

// Carrier is an engine whose pass's transactions live in an index that the
// next pass's engine over the same transactions in the same order can count
// from: the bitset engines, whose TID bitmaps hold a column for every item
// the next pass's candidates can contain (see bitset.go).  The miner carries
// it from pass to pass where every pass scans the same blocks; the serial
// miner does not.  Once counted, the index is only read: carrying from it
// and counting a carried engine write nothing to it.
type Carrier interface {
	Engine
	// Carry returns an engine over cands that counts from the index of this
	// counted engine; or nil when there is none that holds every item of
	// cands.
	Carry(cands itemset.Flat) (Carrier, error)
	// Skim stands in for CountBlock on a carried engine, for a block of txns
	// transactions holding items items: it reads nothing, and its Stats
	// count what CountBlock's would.
	Skim(txns, items int)
	// Skimmed reports an error unless the blocks of a carried engine's scan
	// add up to the transactions and items of the index it carries.
	Skimmed() error
}

// Builder creates per-pass engines.  Both constructors must be safe to call
// from concurrent SPMD goroutines.
//
// Every backend builds from the flat form, which is how the miners hand
// over a pass's candidates.  NewPass is the header form, for callers that
// hold a []itemset.Itemset: each backend's NewPass is newPass, one copy into
// a Flat and then NewPassFlat, so there is one build per backend.
type Builder interface {
	// Name returns the backend's name in the table.
	Name() string
	// NewPassFlat builds an engine over the candidates of cands, each
	// cands.K items.  The candidates are only read, and the engine keeps no
	// reference to them.  They may arrive in any order (IDD rows receive
	// group-concatenated, not globally sorted, candidates).
	NewPassFlat(cands itemset.Flat) (Engine, error)
	// NewPass builds the same engine over size-k candidates held as
	// headers.  A candidate of another size is an error.
	NewPass(k int, cands []itemset.Itemset) (Engine, error)
}

// newPass is every backend's NewPass: the candidates copied flat, then b's
// NewPassFlat.
func newPass(b Builder, k int, cands []itemset.Itemset) (Engine, error) {
	flat, err := itemset.FlatOf(k, cands)
	if err != nil {
		return nil, fmt.Errorf("countengine: %s: %w", b.Name(), err)
	}
	return b.NewPassFlat(flat)
}

// Config carries the knobs a backend may need.
type Config struct {
	// Tree shapes hash trees (the "hashtree" backend; ignored by others).
	Tree hashtree.Config
	// NumItems bounds the item ID space (Dataset.NumItems); backends use
	// it to size dense remap tables.  Zero means "derive from candidates".
	NumItems int
}

// TreeStats maps the abstract counters onto the hash-tree counter names the
// pass reports and figures are stated in: navigation work (array steps and
// bitmap word operations included) appears as Traversals, containment work
// as LeafChecks.  For the "hashtree" backend the mapping is exact — the
// adapter's counters round-trip to the tree's own.
func (s Stats) TreeStats() hashtree.Stats {
	return hashtree.Stats{
		Traversals:   s.NodeSteps + s.ArraySteps + s.WordOps,
		LeafVisits:   s.CandVisits,
		LeafChecks:   s.CandChecks,
		Transactions: s.Transactions,
		Inserts:      s.BuildOps,
	}
}

// backends is every counting backend, by name.
var backends = map[string]func(Config) Builder{
	"bitset":   func(cfg Config) Builder { return &bitsetBuilder{cfg: cfg} },
	"hashtree": func(cfg Config) Builder { return &hashtreeBuilder{cfg: cfg} },
	"trie":     func(cfg Config) Builder { return &trieBuilder{cfg: cfg} },
}

// New builds the named backend ("" selects Default).  Unknown names return
// an error listing the backends.
func New(name string, cfg Config) (Builder, error) {
	if name == "" {
		name = Default
	}
	factory, ok := backends[name]
	if !ok {
		return nil, fmt.Errorf("countengine: unknown engine %q (want one of %v)", name, Names())
	}
	return factory(cfg), nil
}

// Known reports whether name is a backend ("" counts: it means the default).
func Known(name string) bool {
	_, ok := backends[name]
	return ok || name == ""
}

// Names returns the backend names, sorted.
func Names() []string {
	names := make([]string, 0, len(backends))
	for name := range backends {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
