// Command bench is the repository's benchmark: five workloads over the mining
// and serving tiers, a few end-to-end metrics every workload reports, and
// per-layer metrics from a separate traced run.  BENCHMARK.json at the
// repository root declares the workloads and metrics; this program refuses to
// report a set that differs from it.  See README.md in this directory.
//
// It runs from this directory (run.sh changes into it; so do `go run -C` and
// `go test`): BENCHMARK.json is read from the parent directory and
// everything the benchmark writes goes under out/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

const (
	specPath = "../BENCHMARK.json"
	outDir   = "out"
)

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload in-process and print its result as the last line; empty runs every workload, each in a fresh child process")
		seed     = flag.Int64("seed", 7, "seed the inputs are generated from")
		seconds  = flag.Float64("seconds", 0, "how long one run measures (default: run_seconds of BENCHMARK.json)")
		traceOn  = flag.Int("trace", 0, "0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
		smoke    = flag.Bool("smoke", false, "tiny inputs and sub-second phases: checks the plumbing, measures nothing")
		runs     = flag.Int("runs", 1, "untraced runs per workload when running every workload (seeds seed, seed+1, ...)")
		out      = flag.String("out", "", "results file written when running every workload (default out/results-seed<seed>.json)")
		compare  = flag.Bool("compare", false, "compare two results files: -compare a.json b.json")
	)
	flag.Parse()
	// The load generator is one process using at most nproc busy threads.
	runtime.GOMAXPROCS(runtime.NumCPU())

	sp, err := loadSpec(specPath)
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
		if *smoke {
			*seconds = 0.5
		}
	}
	if *runs < 1 {
		fatal(fmt.Errorf("-runs %d: want at least 1", *runs))
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: -compare a.json b.json"))
		}
		regressed, err := compareFiles(os.Stdout, sp, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	case *workload != "":
		res, err := runWorkload(sp, *workload, *seed, *seconds, *traceOn == 1, scaleFor(*smoke))
		if err != nil {
			fatal(err)
		}
		printMetrics(os.Stdout, sp, *workload, res)
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
	default:
		path := *out
		if path == "" {
			path = filepath.Join(outDir, fmt.Sprintf("results-seed%d.json", *seed))
		}
		ok, err := runAll(sp, *seed, *seconds, *runs, *smoke, path)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// metricValue is one reported number, in the shape BENCHMARK.json's contract
// gives the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run carries one workload run: its inputs, the recorder of a traced run,
// and everything the run reports.
type run struct {
	workload string
	seed     int64
	seconds  float64
	sc       scale
	rec      *recorder // nil when untraced

	values    map[string]float64
	attempted int      // operations whose answer the oracle checked
	failed    int      // of those, wrong, refused, partial or errored
	problems  []string // failed oracle checks and harness errors
}

// set reports a metric; reporting a name twice is an error.
func (r *run) set(name string, v float64) {
	if _, dup := r.values[name]; dup {
		r.problemf("metric %s reported twice", name)
	}
	r.values[name] = v
}

func (r *run) problemf(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// check records a failed oracle check that is not tied to one operation.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.problemf(format, args...)
	}
}

// op counts one checked operation.
func (r *run) op(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.problemf(format, args...)
	}
}

// runWorkload runs one workload once and returns what it reports: the
// end-to-end metrics of an untraced run, or the per-layer metrics of a traced
// one.  The reported set must equal the declared set.
func runWorkload(sp *spec, name string, seed int64, seconds float64, traced bool, sc scale) (*result, error) {
	wl, ok := workloads[name]
	if !ok || !sp.hasWorkload(name) {
		return nil, fmt.Errorf("workload %q is not one BENCHMARK.json declares", name)
	}
	r := &run{workload: name, seed: seed, seconds: seconds, sc: sc, values: map[string]float64{}}
	if traced {
		r.rec = newRecorder(name)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	if err := wl.run(r); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	declared := sp.EndToEnd
	if traced {
		declared = sp.PerLayer
		// A layer this workload leaves idle did no work: its metrics read 0.
		for _, lm := range layerMetrics {
			if _, have := r.values[lm.name]; !have && !strings.Contains(lm.on, wl.letter) {
				r.values[lm.name] = 0
			}
		}
		if err := r.rec.write(filepath.Join(outDir, name+".trace.json")); err != nil {
			return nil, err
		}
	}
	res := &result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range declared {
		v, have := r.values[d.Name]
		if !have {
			r.problemf("declared metric %s was not measured", d.Name)
			continue
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		delete(r.values, d.Name)
	}
	for name := range r.values {
		r.problemf("metric %s is not declared in BENCHMARK.json", name)
	}
	if r.attempted < 1 {
		r.problemf("no operation was checked")
	}
	sort.Strings(r.problems)
	for _, p := range r.problems {
		fmt.Fprintf(os.Stderr, "bench: %s: FAILED CHECK: %s\n", name, p)
	}
	res.Correct = r.failed == 0 && len(r.problems) == 0
	return res, nil
}

// printMetrics lists every metric by name with its unit, in declaration order.
func printMetrics(w *os.File, sp *spec, workload string, res *result) {
	for _, decl := range [][]metricDecl{sp.EndToEnd, sp.PerLayer} {
		for _, d := range decl {
			if m, ok := res.Metrics[d.Name]; ok {
				fmt.Fprintf(w, "%-12s %-38s %14s %s\n", workload, d.Name, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit)
			}
		}
	}
	fmt.Fprintf(w, "%-12s attempted %d failed %d correct %v\n", workload, res.Attempted, res.Failed, res.Correct)
}

// resultsFile is what running every workload writes and -compare reads.
type resultsFile struct {
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	// Runs holds the end-to-end metrics of each untraced run.
	Runs []map[string]float64 `json:"runs"`
	// Layers holds the per-layer metrics of the traced run.
	Layers    map[string]float64 `json:"layers"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
}

// runAll runs every declared workload, each run in a fresh child process:
// `runs` untraced runs and one traced run per workload.
func runAll(sp *spec, seed int64, seconds float64, runs int, smoke bool, outPath string) (bool, error) {
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	file := resultsFile{Seed: seed, Seconds: seconds, Workloads: map[string]*workloadResult{}}
	allOK := true
	for _, w := range sp.Workloads {
		wr := &workloadResult{}
		file.Workloads[w.Name] = wr
		for i := 0; i <= runs; i++ {
			// Untraced runs on seeds seed, seed+1, ...; then the traced run on seed.
			traced, trace := i == runs, "0"
			if traced {
				trace = "1"
			}
			args := []string{"-workload", w.Name, "-seed", strconv.FormatInt(seed+int64(i%runs), 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace}
			if smoke {
				args = append(args, "-smoke")
			}
			res, err := runChild(exe, args)
			if err != nil {
				return false, fmt.Errorf("%s: %w", w.Name, err)
			}
			printMetrics(os.Stdout, sp, w.Name, res)
			allOK = allOK && res.Correct
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			vals := make(map[string]float64, len(res.Metrics))
			for name, m := range res.Metrics {
				vals[name] = m.Value
			}
			if traced {
				wr.Layers = vals
			} else {
				wr.Runs = append(wr.Runs, vals)
			}
		}
		fmt.Printf("%-12s %-38s %14g share\n", w.Name, "failed_share", float64(wr.Failed)/float64(wr.Attempted))
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(filepath.Dir(outPath), 0o755); err != nil {
		return false, err
	}
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return false, err
	}
	fmt.Printf("results written to %s\n", outPath)
	return allOK, nil
}

// runChild runs one workload in a child process and parses the result line.
// A child that fails its checks still prints one; it is returned, not lost.
func runChild(exe string, args []string) (*result, error) {
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("child printed no result line: %w", err)
	}
	return &res, nil
}
