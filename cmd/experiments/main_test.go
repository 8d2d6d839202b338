package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/cli.golden")

// TestMain lets the test binary stand in for the command: re-executed with
// EXPERIMENTS_TEST_MAIN set it runs main() on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("EXPERIMENTS_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs the command and returns (exit code, stdout, stderr).
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "EXPERIMENTS_TEST_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	code := 0
	if err := cmd.Run(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("experiments %v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	return code, stdout.String(), stderr.String()
}

// TestGoldenCLI pins the registry listing — twelve entries: the paper's
// evaluation and the extensions that price the miner, not the wall-clock
// sweeps bench/ measures — and one virtual-clock experiment in each
// machine-readable format (the text format ends in a wall-clock line; its
// body is export_test.go's business).
func TestGoldenCLI(t *testing.T) {
	var got strings.Builder
	for _, args := range [][]string{
		{"-list"},
		{"-run", "table2", "-quick", "-format", "csv"},
		{"-run", "table2", "-quick", "-seed", "11", "-scale", "0.5", "-format", "json"},
	} {
		code, stdout, stderr := runCLI(t, args...)
		if code != 0 {
			t.Fatalf("experiments %v: exit %d\n%s", args, code, stderr)
		}
		fmt.Fprintf(&got, "$ experiments %s\n%s\n", strings.Join(args, " "), stdout)
	}

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

// TestUsageErrors pins the misuse paths: an unknown experiment (a retired
// one included) or format is exit 2, and so is -plot into a machine-readable
// format — each before any experiment has run, so nothing is on stdout.
func TestUsageErrors(t *testing.T) {
	if code, _, stderr := runCLI(t, "-run", "loadgen"); code != 2 || !strings.Contains(stderr, `unknown experiment "loadgen"`) {
		t.Errorf("-run loadgen: exit %d, stderr %q", code, stderr)
	}
	if code, stdout, stderr := runCLI(t, "-run", "table2", "-quick", "-format", "xml"); code != 2 || stdout != "" || !strings.Contains(stderr, `unknown format "xml"`) {
		t.Errorf("-format xml: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
	if code, stdout, stderr := runCLI(t, "-run", "table2", "-quick", "-format", "json", "-plot"); code != 2 || stdout != "" || !strings.Contains(stderr, "-plot") {
		t.Errorf("-format json -plot: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}
