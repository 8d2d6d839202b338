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
// RULES_TEST_MAIN set it runs main() on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("RULES_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// rules runs the command and returns (exit code, stdout, stderr).
func rules(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "RULES_TEST_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	code := 0
	if err := cmd.Run(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("rules %v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	return code, stdout.String(), stderr.String()
}

// seededResult writes to freq what `apriori -minsup 0.08 -save` writes of
// cmd/apriori's test dataset: the digest pinned here is the one in that
// command's golden.
func seededResult(t *testing.T, freq string) {
	t.Helper()
	gen := parapriori.DefaultGen()
	gen.NumTransactions = 300
	gen.NumItems = 40
	gen.NumPatterns = 20
	gen.AvgTxnLen = 6
	gen.AvgPatternLen = 3
	gen.Seed = 5
	data, err := parapriori.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	res, err := parapriori.Mine(data, parapriori.MineOptions{MinSupport: 0.08})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(freq)
	if err != nil {
		t.Fatal(err)
	}
	if err := parapriori.WriteResult(f, res); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenCLI pins the rule generator's flags and output: saved itemsets
// with -top, the -item filter, the emulated-cluster generation with its
// virtual time, and vocabulary labels.
func TestGoldenCLI(t *testing.T) {
	dir := t.TempDir()
	freq, vocab := filepath.Join(dir, "freq.txt"), filepath.Join(dir, "names.txt")
	seededResult(t, freq)
	var names strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&names, "sku-%02d\n", i)
	}
	if err := os.WriteFile(vocab, []byte(names.String()), 0o666); err != nil {
		t.Fatal(err)
	}

	var got strings.Builder
	raw, err := os.ReadFile(freq)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&got, "sha256 freq.txt %x\n\n", sha256.Sum256(raw))
	for _, args := range [][]string{
		{"-load", freq, "-top", "5"},
		{"-load", freq, "-minconf", "0.95", "-item", "13"},
		{"-load", freq, "-p", "4", "-machine", "sp2", "-top", "2"},
		{"-load", freq, "-vocab", vocab, "-top", "2"},
	} {
		code, stdout, stderr := rules(t, args...)
		if code != 0 {
			t.Fatalf("rules %v: exit %d\n%s", args, code, stderr)
		}
		shown := strings.ReplaceAll(strings.Join(args, " "), dir, "$TMP")
		fmt.Fprintf(&got, "$ rules %s\n%s%s\n", shown, stdout, stderr)
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

// TestUsageErrors pins the misuse paths: no input is exit 1, a negative
// -p or an unknown machine exit 2.
func TestUsageErrors(t *testing.T) {
	freq := filepath.Join(t.TempDir(), "freq.txt")
	seededResult(t, freq)
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{nil, 1, "need -load"},
		{[]string{"-load", freq, "-p", "-1"}, 2, "-p -1"},
		{[]string{"-load", freq, "-p", "2", "-machine", "cm5"}, 2, `unknown machine "cm5"`},
	} {
		if code, _, stderr := rules(t, tc.args...); code != tc.code || !strings.Contains(stderr, tc.want) {
			t.Errorf("rules %v: exit %d, stderr %q; want exit %d mentioning %q", tc.args, code, stderr, tc.code, tc.want)
		}
	}
}
