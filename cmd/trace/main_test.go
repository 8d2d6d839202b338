package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"parapriori"
)

var update = flag.Bool("update", false, "rewrite testdata/cli.golden")

// TestMain lets the test binary stand in for the command: re-executed with
// TRACE_TEST_MAIN set it runs main() on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("TRACE_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// trace runs the command and returns (exit code, stdout, stderr).
func trace(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TRACE_TEST_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	code := 0
	if err := cmd.Run(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("trace %v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	return code, stdout.String(), stderr.String()
}

// seededTrace mines a seeded dataset with IDD on four processors and saves
// the full span trace the way `parminer -trace` does.
func seededTrace(t *testing.T, path string) {
	t.Helper()
	gen := parapriori.DefaultGen()
	gen.NumTransactions = 1500
	gen.NumItems = 60
	gen.NumPatterns = 40
	gen.AvgTxnLen = 8
	gen.AvgPatternLen = 4
	gen.Seed = 5
	data, err := parapriori.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	rec := parapriori.NewSpanCollector()
	if _, err := parapriori.MineParallel(data, parapriori.ParallelOptions{
		MineOptions: parapriori.MineOptions{MinSupport: 0.05},
		Algorithm:   parapriori.IDD,
		Procs:       4,
		Recorder:    rec,
	}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := parapriori.WriteSpanTrace(f, rec.Trace()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenCLI pins every view the command prints of one seeded trace: the
// default attribution table, the Gantt chart at two widths, the pass
// histogram with its percentile lines, the flight view, and the bytes of the
// normalized Perfetto re-export.
func TestGoldenCLI(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "trace.json")
	seededTrace(t, in)
	norm := filepath.Join(dir, "normalized.json")

	var got strings.Builder
	for _, args := range [][]string{
		{in},
		{"-timeline", in},
		{"-timeline", "-width", "60", in},
		{"-hist", in},
		{"-flight", "12", in},
		{"-attrib", "-flight", "3", in},
		{"-perfetto", norm, in},
	} {
		code, stdout, stderr := trace(t, args...)
		if code != 0 {
			t.Fatalf("trace %v: exit %d\n%s", args, code, stderr)
		}
		shown := strings.ReplaceAll(strings.Join(args, " "), dir, "$TMP")
		fmt.Fprintf(&got, "$ trace %s\n%s\n", shown, stdout)
	}
	raw, err := os.ReadFile(norm)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&got, "sha256 normalized.json %x\n", sha256.Sum256(raw))

	const golden = "testdata/cli.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got.String()), 0o666); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("output moved (rerun with -update only if the change is meant):\n got:\n%s\nwant:\n%s", got.String(), want)
	}
}

// TestUsageErrors pins the misuse paths: no file is exit 2 with usage, a
// file that is not a trace is exit 1, and so is a trace with a span that
// ends before it starts.
func TestUsageErrors(t *testing.T) {
	if code, _, stderr := trace(t); code != 2 || !strings.Contains(stderr, "usage: trace") {
		t.Errorf("no arguments: exit %d, stderr %q", code, stderr)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o666); err != nil {
		t.Fatal(err)
	}
	if code, _, stderr := trace(t, bad); code != 1 || !strings.HasPrefix(stderr, "trace: ") {
		t.Errorf("garbage input: exit %d, stderr %q", code, stderr)
	}
	if code, _, stderr := trace(t, "-hist", "testdata/negative-dur.json"); code != 1 || !strings.Contains(stderr, `"pass k=2"`) {
		t.Errorf("negative dur: exit %d, stderr %q", code, stderr)
	}
}

// TestHistRows pins the -hist rows at every bucket edge against the rule
// the rows state: row 0 is [0, 1 µs), row i ≥ 1 is [2^(i-1), 2^i) µs, and
// the top row, 31, has no upper bound.  A value exactly at 2^i µs opens row
// i+1; a nanosecond less stays in row i.  Values round to the nanosecond.
func TestHistRows(t *testing.T) {
	type tc struct {
		name string
		d    []float64 // seconds, ascending
		row  int       // the one non-empty row; -1 for none
	}
	cases := []tc{
		{"empty", nil, -1},
		{"0 and 0.5us", []float64{0, 0.5e-6}, 0},
		{"past 2^31us", []float64{math.Ldexp(1e-6, 31) * 1.5}, 31},
		// A span's duration is a difference of float seconds; noise below
		// a nanosecond rounds away and does not move a value off its edge.
		{"2^10us less float noise", []float64{0.001024 - 1e-16}, 11},
	}
	for i := 0; i <= 30; i++ {
		edge := math.Ldexp(1e-6, i)
		cases = append(cases,
			tc{fmt.Sprintf("2^%dus", i), []float64{edge}, i + 1},
			tc{fmt.Sprintf("2^%dus-1ns", i), []float64{edge - 1e-9}, i})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var got strings.Builder
			if err := writeHist(&got, c.d); err != nil {
				t.Fatal(err)
			}
			var want strings.Builder
			lo, hi, sum, mean := 0.0, 0.0, 0.0, 0.0
			for _, v := range c.d {
				sum += v
			}
			if n := len(c.d); n > 0 {
				lo, hi, mean = c.d[0], c.d[n-1], sum/float64(n)
			}
			fmt.Fprintf(&want, "n=%d min=%.6f max=%.6f mean=%.6f (seconds)\n", len(c.d), lo, hi, mean)
			for i := 0; i <= c.row; i++ {
				from, to := 0.0, math.Ldexp(1e-6, i)
				if i > 0 {
					from = math.Ldexp(1e-6, i-1)
				}
				if i == 31 {
					to = math.Inf(1)
				}
				n, bar := 0, ""
				if i == c.row {
					n, bar = len(c.d), strings.Repeat("#", 40)
				}
				fmt.Fprintf(&want, "[%12.6f, %12.6f) %6d %s\n", from, to, n, bar)
			}
			if got.String() != want.String() {
				t.Errorf("rows of %v:\n got:\n%s\nwant:\n%s", c.d, got.String(), want.String())
			}
		})
	}
}
