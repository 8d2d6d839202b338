package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"

	"parapriori/internal/apriori"
	"parapriori/internal/core"
	"parapriori/internal/countengine"
	"parapriori/internal/datagen"
	"parapriori/internal/itemset"
	"parapriori/internal/obsv"
)

// The counting-engine benchmark: the same parallel CD run, three candidate-
// counting backends, on the virtual clock.  Because virtual time is a pure
// function of measured operation counts × machine constants, the sweep is
// byte-deterministic for a fixed seed — BENCH_mining.json is a tracked perf
// trajectory, not a noisy sample.  The per-cell result SHA proves the
// backends mine bit-identical output; the section breakdown (from the span
// trace) shows *where* each backend's clock goes.

// EngineBenchSchema tags the JSON artifact; bump on incompatible change.
const EngineBenchSchema = "parapriori/enginebench/v1"

// BenchWorkload is one dataset of the mining benchmark sweep.
type BenchWorkload struct {
	// Name labels the dataset in cells ("t12.sparse").
	Name string
	// Gen generates it.
	Gen datagen.Params
	// Supports are the minimum-support points swept on this dataset.
	Supports []float64
}

// BenchWorkloads returns the benchmark datasets: the sparse T12-style
// workload the root micro-benchmarks have always used, and a dense small-
// alphabet workload where transactions hit most candidates — the regime
// where vertical (bitset) counting should shine and hash-tree leaf checks
// are nearly all hits.  Config.Scale scales transaction counts; Quick trims
// each dataset to its first support point.
func BenchWorkloads(c Config) []BenchWorkload {
	c = c.withDefaults()
	sparse := datagen.Defaults()
	sparse.NumTransactions = c.scaled(4000)
	sparse.NumItems = 300
	sparse.NumPatterns = 200
	sparse.AvgTxnLen = 12
	sparse.AvgPatternLen = 4
	sparse.Seed = c.Seed
	dense := datagen.Defaults()
	dense.NumTransactions = c.scaled(1500)
	dense.NumItems = 80
	dense.NumPatterns = 60
	dense.AvgTxnLen = 10
	dense.AvgPatternLen = 4
	dense.Seed = c.Seed + 1
	ws := []BenchWorkload{
		{Name: "t12.sparse", Gen: sparse, Supports: []float64{0.01, 0.005}},
		{Name: "t10.dense", Gen: dense, Supports: []float64{0.03, 0.02}},
	}
	if c.Quick {
		for i := range ws {
			ws[i].Supports = ws[i].Supports[:1]
		}
	}
	return ws
}

// BenchData generates a benchmark workload's dataset.
func BenchData(w BenchWorkload) (*itemset.Dataset, error) {
	return mustGen(w.Gen)
}

// EngineCell is one (dataset, support, engine) measurement.
type EngineCell struct {
	Dataset string  `json:"dataset"`
	Support float64 `json:"support"`
	Engine  string  `json:"engine"`

	Transactions int `json:"transactions"`
	Passes       int `json:"passes"`
	Frequent     int `json:"frequent"`
	// ResultSHA is the SHA-256 of the mined result's WriteResult bytes;
	// identical across engines of the same (dataset, support) by
	// construction — EngineBench fails otherwise.
	ResultSHA string `json:"result_sha256"`

	// Virtual seconds: total response, and the count/build engine sections
	// summed over ranks and passes (from the span trace).
	ResponseSec float64 `json:"response_sec"`
	CountSec    float64 `json:"count_sec"`
	BuildSec    float64 `json:"build_sec"`
	// TxnPerSec is Transactions / ResponseSec on the virtual clock.
	TxnPerSec float64 `json:"txn_per_sec"`

	// Aggregate counting-structure op counters over all passes, in the
	// hash-tree vocabulary every backend maps onto (see countengine.Stats).
	Traversals int64 `json:"traversals"`
	LeafChecks int64 `json:"leaf_checks"`
	Inserts    int64 `json:"inserts"`

	// SerialAllocs is the heap allocations of one serial Mine over the
	// dataset with this engine (minimum over runs, GC paused) — the
	// real-memory counterpart of the virtual numbers, measured at this
	// cell's own support point.
	SerialAllocs int64 `json:"serial_allocs_per_run"`

	// PassHist is the distribution of per-rank pass durations (virtual
	// seconds, log-2 buckets).
	PassHist obsv.Histogram `json:"pass_hist"`
}

// EngineSpeedup compares one engine against the hashtree baseline at one
// sweep point: >1 means faster.
type EngineSpeedup struct {
	Dataset         string  `json:"dataset"`
	Support         float64 `json:"support"`
	Engine          string  `json:"engine"`
	CountSpeedup    float64 `json:"count_speedup"`
	ResponseSpeedup float64 `json:"response_speedup"`
}

// EngineBenchReport is the full sweep, the payload of BENCH_mining.json.
type EngineBenchReport struct {
	Schema  string          `json:"schema"`
	Algo    string          `json:"algo"`
	Procs   int             `json:"procs"`
	Machine string          `json:"machine"`
	Scale   float64         `json:"scale"`
	Seed    int64           `json:"seed"`
	Engines []string        `json:"engines"`
	Cells   []EngineCell    `json:"cells"`
	Speedup []EngineSpeedup `json:"speedups"`
}

// WriteJSON writes the report as indented JSON.  Field order is fixed by
// the struct tags and slice order by the sweep, so the bytes are
// deterministic for a deterministic report.
func (r *EngineBenchReport) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// EngineBench runs the sweep: every registered engine × every workload ×
// every support point, on a parallel CD run (4 emulated T3E processors,
// capped by Config.MaxP).  It fails if any engine's mined result differs
// from the hashtree baseline's — the artifact must never publish a speedup
// bought with wrong answers.
func EngineBench(c Config) (*EngineBenchReport, error) {
	c = c.withDefaults()
	procs := c.procs(4)
	rep := &EngineBenchReport{
		Schema:  EngineBenchSchema,
		Algo:    string(core.CD),
		Procs:   procs,
		Machine: "t3e",
		Scale:   c.Scale,
		Seed:    c.Seed,
		Engines: countengine.Names(),
	}
	for _, w := range BenchWorkloads(c) {
		data, err := BenchData(w)
		if err != nil {
			return nil, err
		}
		for _, sup := range w.Supports {
			baseline := ""
			var cells []EngineCell
			for _, eng := range rep.Engines {
				cell, err := engineCell(data, w.Name, sup, eng, procs)
				if err != nil {
					return nil, fmt.Errorf("experiments: enginebench %s/%v/%s: %w", w.Name, sup, eng, err)
				}
				if cell.SerialAllocs, err = serialAllocs(data, sup, eng); err != nil {
					return nil, fmt.Errorf("experiments: enginebench %s/%v/%s allocs: %w", w.Name, sup, eng, err)
				}
				if eng == countengine.Default {
					baseline = cell.ResultSHA
				}
				cells = append(cells, *cell)
			}
			var base *EngineCell
			for i := range cells {
				if cells[i].Engine == countengine.Default {
					base = &cells[i]
				}
			}
			for _, cell := range cells {
				if cell.ResultSHA != baseline {
					return nil, fmt.Errorf("experiments: enginebench %s/%v: engine %s mined a different result than %s (sha %s vs %s)",
						w.Name, sup, cell.Engine, countengine.Default, cell.ResultSHA, baseline)
				}
				if cell.Engine == countengine.Default {
					continue
				}
				rep.Speedup = append(rep.Speedup, EngineSpeedup{
					Dataset:         cell.Dataset,
					Support:         sup,
					Engine:          cell.Engine,
					CountSpeedup:    ratio(base.CountSec, cell.CountSec),
					ResponseSpeedup: ratio(base.ResponseSec, cell.ResponseSec),
				})
			}
			rep.Cells = append(rep.Cells, cells...)
		}
	}
	return rep, nil
}

// engineCell measures one sweep point: a recorded parallel CD run.
func engineCell(data *itemset.Dataset, dataset string, sup float64, eng string, procs int) (*EngineCell, error) {
	rec := obsv.NewCollector(obsv.ClockVirtual)
	prm := mineParams(sup, 0)
	prm.Engine = eng
	run, err := core.Mine(data, core.Params{
		Algo:     core.CD,
		P:        procs,
		Apriori:  prm,
		Recorder: rec,
	})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := apriori.WriteResult(&buf, run.Result); err != nil {
		return nil, err
	}
	sum := sha256.Sum256(buf.Bytes())
	trace := rec.Trace()
	secs := obsv.SectionSeconds(trace)
	cell := &EngineCell{
		Dataset:      dataset,
		Support:      sup,
		Engine:       eng,
		Transactions: len(data.Transactions),
		Passes:       len(run.Passes),
		Frequent:     run.Result.NumFrequent(),
		ResultSHA:    hex.EncodeToString(sum[:]),
		ResponseSec:  run.ResponseTime,
		CountSec:     secs["count"],
		BuildSec:     secs["build"],
		TxnPerSec:    ratio(float64(len(data.Transactions)), run.ResponseTime),
		PassHist:     obsv.PassHistogram(trace),
	}
	for _, p := range run.Passes {
		cell.Traversals += p.Tree.Traversals
		cell.LeafChecks += p.Tree.LeafChecks
		cell.Inserts += p.Tree.Inserts
	}
	return cell, nil
}

// serialAllocs measures the heap allocations of one serial Mine with the
// engine — the moral equivalent of testing.AllocsPerRun without importing
// package testing into a library.  GC is paused and the minimum of a few
// single runs taken, so a deterministic miner yields a deterministic count
// (a concurrent GC cycle can otherwise charge a stray allocation to the
// window).
func serialAllocs(data *itemset.Dataset, sup float64, eng string) (int64, error) {
	prm := mineParams(sup, 0)
	prm.Engine = eng
	mine := func() error {
		_, err := apriori.Mine(data, prm)
		return err
	}
	if err := mine(); err != nil { // warm-up, and the only error check
		return 0, err
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	best := int64(-1)
	var before, after runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&before)
		mine()
		runtime.ReadMemStats(&after)
		if n := int64(after.Mallocs - before.Mallocs); best < 0 || n < best {
			best = n
		}
	}
	return best, nil
}

func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

// EngineBenchTable wraps the sweep as a registry experiment so
// cmd/experiments and the benchmark harness can run it.
func EngineBenchTable(c Config) (*Result, error) {
	rep, err := EngineBench(c)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:    "enginebench",
		Title: "Counting-engine comparison (hashtree vs trie vs bitset), parallel CD",
		Notes: []string{
			fmt.Sprintf("algo=%s p=%d machine=%s seed=%d scale=%g", rep.Algo, rep.Procs, rep.Machine, rep.Seed, rep.Scale),
			"count/build are engine-section virtual seconds summed over ranks; sha identical across engines per sweep point",
		},
		TableHeader: []string{"dataset", "minsup", "engine", "response_s", "count_s", "build_s", "txn/s", "allocs", "sha"},
	}
	for _, c := range rep.Cells {
		res.TableRows = append(res.TableRows, []string{
			c.Dataset,
			fmt.Sprintf("%.4g", c.Support),
			c.Engine,
			fmt.Sprintf("%.6f", c.ResponseSec),
			fmt.Sprintf("%.6f", c.CountSec),
			fmt.Sprintf("%.6f", c.BuildSec),
			fmt.Sprintf("%.0f", c.TxnPerSec),
			fmt.Sprintf("%d", c.SerialAllocs),
			c.ResultSHA[:12],
		})
	}
	for _, s := range rep.Speedup {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%s minsup=%.4g %s: count ×%.2f, response ×%.2f vs %s",
			s.Dataset, s.Support, s.Engine, s.CountSpeedup, s.ResponseSpeedup, countengine.Default))
	}
	return res, nil
}
