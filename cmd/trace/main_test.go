package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
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
// file that is not a trace is exit 1.
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
}
