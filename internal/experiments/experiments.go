// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V): the scaleup, speedup, sizeup and candidate-
// scaling studies on the emulated Cray T3E and IBM SP2 machines.
//
// Each experiment is a function from a Config to a Result holding the same
// series/rows the paper plots; cmd/experiments renders them as text and
// bench_test.go wraps each in a benchmark.  Absolute times come from the
// virtual-time cost model and are not meant to match a 1997 supercomputer —
// the reproduced quantity is the *shape*: who wins, by what factor, and
// where the crossovers fall (see EXPERIMENTS.md for the comparison).
package experiments

import (
	"fmt"
	"io"
	"strings"

	"parapriori/internal/apriori"
	"parapriori/internal/core"
	"parapriori/internal/datagen"
	"parapriori/internal/hashtree"
	"parapriori/internal/itemset"
)

// Config scales and seeds the experiment workloads.
type Config struct {
	// Scale multiplies transaction counts.  1.0 (the default) keeps every
	// experiment in CI-friendly territory; larger values sharpen the
	// asymptotic shapes at the cost of runtime.
	Scale float64
	// Quick trims the processor sweeps to their endpoints, for tests.
	Quick bool
	// MaxP, if positive, drops processor-sweep entries above it before
	// Quick trimming.  The -race -short CI job uses it to keep the
	// emulated machines small: race instrumentation makes the large-P
	// endpoints (64, 128 goroutines) the dominant cost.  Note that
	// shrinking Scale instead is counterproductive at the low end — near
	// the 100-transaction floor the support threshold rounds down to a
	// count of 1 and the candidate sets explode.
	MaxP int
	// Seed seeds the synthetic workload generator.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Seed == 0 {
		c.Seed = 7
	}
	return c
}

// scaled returns n transactions scaled by the config, at least 100.
func (c Config) scaled(n int) int {
	v := int(float64(n) * c.Scale)
	if v < 100 {
		v = 100
	}
	return v
}

// sweep returns the processor sweep: entries above MaxP are dropped (at
// least one survives), then Quick keeps only the endpoints.
func (c Config) sweep(ps []int) []int {
	if c.MaxP > 0 {
		var kept []int
		for _, p := range ps {
			if p <= c.MaxP {
				kept = append(kept, p)
			}
		}
		if len(kept) == 0 {
			kept = ps[:1]
		}
		ps = kept
	}
	if !c.Quick || len(ps) <= 2 {
		return ps
	}
	return []int{ps[0], ps[len(ps)-1]}
}

// procs caps an experiment's fixed processor count by MaxP.
func (c Config) procs(p int) int {
	if c.MaxP > 0 && p > c.MaxP {
		return c.MaxP
	}
	return p
}

// Point is one (x, y) sample of a series.
type Point struct{ X, Y float64 }

// Series is one curve of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Result is a regenerated table or figure.
type Result struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	// Series holds the figure curves (empty for pure tables).
	Series []Series
	// TableHeader and TableRows hold tabular output (Table II, and the
	// numeric dump that accompanies each figure).
	TableHeader []string
	TableRows   [][]string
	// Notes records workload parameters and observations worth keeping
	// next to the numbers.
	Notes []string
}

// WriteText renders the result as aligned text.
func (r *Result) WriteText(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "   %s\n", n)
	}
	if len(r.Series) > 0 {
		fmt.Fprintf(&b, "   x: %s, y: %s\n", r.XLabel, r.YLabel)
		for _, s := range r.Series {
			fmt.Fprintf(&b, "   %-10s", s.Name)
			for _, pt := range s.Points {
				fmt.Fprintf(&b, " (%.4g, %.4g)", pt.X, pt.Y)
			}
			fmt.Fprintln(&b)
		}
	}
	if len(r.TableHeader) > 0 {
		widths := make([]int, len(r.TableHeader))
		for i, h := range r.TableHeader {
			widths[i] = len(h)
		}
		for _, row := range r.TableRows {
			for i, cell := range row {
				if i < len(widths) && len(cell) > widths[i] {
					widths[i] = len(cell)
				}
			}
		}
		writeRow := func(cells []string) {
			b.WriteString("   ")
			for i, cell := range cells {
				fmt.Fprintf(&b, "%-*s  ", widths[i], cell)
			}
			b.WriteString("\n")
		}
		writeRow(r.TableHeader)
		for _, row := range r.TableRows {
			writeRow(row)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Named pairs an experiment with its registry name.
type Named struct {
	Name string
	Doc  string
	Run  func(Config) (*Result, error)
}

// All returns every experiment in presentation order.
func All() []Named {
	return []Named{
		{"table2", "HD grid configuration per pass (Table II)", Table2},
		{"fig10", "Scaleup of CD/DD/DD+comm/IDD/HD (Figure 10)", Fig10},
		{"fig11", "Distinct leaf visits per transaction, DD vs IDD (Figure 11)", Fig11},
		{"fig12", "Response time vs candidates with disk I/O on SP2 (Figure 12)", Fig12},
		{"fig13", "Speedup at fixed N and M (Figure 13)", Fig13},
		{"fig14", "Runtime vs transactions at fixed M and P (Figure 14)", Fig14},
		{"fig15", "Runtime vs candidates at fixed N and P (Figure 15)", Fig15},
		{"model", "Section IV cost model vs emulation", Model},
		{"ablate", "Design ablations: G sweep, free-communication baseline, overlap", Ablate},
		{"hpa", "HPA vs IDD vs DD communication volume (Section III-E)", HPAStudy},
		{"faults", "Recovery overhead under loss/straggler/crash faults (CD, IDD, HD)", Faults},
		{"attrib", "Per-pass cost attribution from span traces, reconciled with cluster stats", Attrib},
	}
}

// Lookup finds an experiment by name.
func Lookup(name string) (Named, bool) {
	for _, n := range All() {
		if n.Name == name {
			return n, true
		}
	}
	return Named{}, false
}

// baseGen returns the generator parameters shared by the T3E experiments:
// a scaled-down T15.I6-style workload that keeps candidate sets rich
// without making the emulation run for hours.
func baseGen(c Config, n int) datagen.Params {
	p := datagen.Defaults()
	p.NumTransactions = n
	p.NumItems = 400
	p.NumPatterns = 300
	p.AvgTxnLen = 12
	p.AvgPatternLen = 4
	p.Seed = c.Seed
	return p
}

func mustGen(p datagen.Params) (*itemset.Dataset, error) {
	d, err := datagen.Generate(p)
	if err != nil {
		return nil, fmt.Errorf("experiments: generating workload: %w", err)
	}
	return d, nil
}

// totalCandidates sums |C_k| over the passes of a report.
func totalCandidates(rep *core.Report) int {
	total := 0
	for _, p := range rep.Passes {
		if p.K >= 2 {
			total += p.Candidates
		}
	}
	return total
}

func mineParams(minsup float64, maxPasses int) apriori.Params {
	// Fanout 64 keeps the hash trees in the L >> C regime the paper's
	// machines ran in (see hashtree.Config.Fanout).
	return apriori.Params{
		MinSupport: minsup,
		MaxPasses:  maxPasses,
		Tree:       hashtree.Config{Fanout: 64, MaxLeaf: 16},
	}
}
