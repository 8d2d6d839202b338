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

// seededFiles writes cmd/apriori's test dataset to dat and, to freq, what
// `apriori -minsup 0.08 -save` writes of it: the digest pinned here is the
// one in that command's golden.
func seededFiles(t *testing.T, dat, freq string) {
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
	create := func(path string, write func(*os.File) error) {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := write(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	create(dat, func(f *os.File) error { return parapriori.WriteDataset(f, data) })
	create(freq, func(f *os.File) error { return parapriori.WriteResult(f, res) })
}

// overclaim is a malformed binary dataset: 15 bytes whose header claims 2^33
// transactions over 10 items and which then hold one.
const overclaim = "PAPD\x01\x0a\x80\x80\x80\x80\x20\x00\x02\x01\x02"

// TestGoldenCLI pins the rule generator's flags and output: saved itemsets
// with -top, the -item filter, mining on the fly, the emulated-cluster
// generation with its virtual time, vocabulary labels, and a malformed
// -mine input refused in one line.
func TestGoldenCLI(t *testing.T) {
	dir := t.TempDir()
	dat, freq, vocab := filepath.Join(dir, "seeded.dat"), filepath.Join(dir, "freq.txt"), filepath.Join(dir, "names.txt")
	seededFiles(t, dat, freq)
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
		{"-mine", dat, "-minsup", "0.12", "-minconf", "0.9", "-top", "3"},
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
	bad := filepath.Join(dir, "overclaim.bin")
	if err := os.WriteFile(bad, []byte(overclaim), 0o666); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := rules(t, "-mine", bad)
	fmt.Fprintf(&got, "$ rules -mine $TMP/overclaim.bin\nexit %d\n%s%s\n", code, stdout, stderr)

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

// TestUsageErrors pins the misuse paths: no input or both inputs is exit 1,
// an unknown machine exit 2.
func TestUsageErrors(t *testing.T) {
	dir := t.TempDir()
	dat, freq := filepath.Join(dir, "seeded.dat"), filepath.Join(dir, "freq.txt")
	seededFiles(t, dat, freq)
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{nil, 1, "need -load"},
		{[]string{"-load", freq, "-mine", dat}, 1, "not both"},
		{[]string{"-load", freq, "-p", "2", "-machine", "cm5"}, 2, `unknown machine "cm5"`},
	} {
		if code, _, stderr := rules(t, tc.args...); code != tc.code || !strings.Contains(stderr, tc.want) {
			t.Errorf("rules %v: exit %d, stderr %q; want exit %d mentioning %q", tc.args, code, stderr, tc.code, tc.want)
		}
	}
}
