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
// APRIORI_TEST_MAIN set it runs main() on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("APRIORI_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// apriori runs the command and returns (exit code, stdout, stderr).
func apriori(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "APRIORI_TEST_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	code := 0
	if err := cmd.Run(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("apriori %v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	return code, stdout.String(), stderr.String()
}

// seededFile writes the tests' transaction set — cmd/rules mines the same
// one, so the two commands' goldens name the same freq.txt digest.
func seededFile(t *testing.T, path string) {
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
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := parapriori.WriteDataset(f, data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// overclaim is a malformed binary dataset: 15 bytes whose header claims 2^33
// transactions over 10 items and which then hold one.
const overclaim = "PAPD\x01\x0a\x80\x80\x80\x80\x20\x00\x02\x01\x02"

// TestGoldenCLI pins the serial miner's flags and output: the per-pass
// summary, the itemset listing (the same bytes from every engine), the
// digest of what -save writes for rules -load, and a malformed input
// refused in one line.
func TestGoldenCLI(t *testing.T) {
	dir := t.TempDir()
	dat, freq := filepath.Join(dir, "seeded.dat"), filepath.Join(dir, "freq.txt")
	seededFile(t, dat)

	var got strings.Builder
	run := func(args ...string) string {
		code, stdout, stderr := apriori(t, args...)
		if code != 0 {
			t.Fatalf("apriori %v: exit %d\n%s", args, code, stderr)
		}
		return stdout
	}
	section := func(args ...string) {
		shown := strings.ReplaceAll(strings.Join(args, " "), dir, "$TMP")
		fmt.Fprintf(&got, "$ apriori %s\n%s\n", shown, run(args...))
	}

	section("-minsup", "0.08", "-summary", "-save", freq, dat)
	raw, err := os.ReadFile(freq)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&got, "sha256 freq.txt %x\n\n", sha256.Sum256(raw))
	section("-minsup", "0.12", dat)

	bad := filepath.Join(dir, "overclaim.bin")
	if err := os.WriteFile(bad, []byte(overclaim), 0o666); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := apriori(t, bad)
	fmt.Fprintf(&got, "$ apriori $TMP/overclaim.bin\nexit %d\n%s%s\n", code, stdout, stderr)

	listing := run("-minsup", "0.08", dat)
	for _, engine := range parapriori.CountEngines() {
		if run("-engine", engine, "-minsup", "0.08", dat) != listing {
			t.Errorf("apriori -engine %s prints a different listing than the default engine", engine)
		}
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

// TestUsageErrors pins the misuse paths: no input is exit 2 with usage, an
// unreadable file, an unknown engine or a -save that cannot be written is
// exit 1.
func TestUsageErrors(t *testing.T) {
	if code, _, stderr := apriori(t); code != 2 || !strings.Contains(stderr, "usage: apriori") {
		t.Errorf("no arguments: exit %d, stderr %q", code, stderr)
	}
	dir := t.TempDir()
	if code, _, stderr := apriori(t, filepath.Join(dir, "missing.dat")); code != 1 || !strings.HasPrefix(stderr, "apriori: ") {
		t.Errorf("missing file: exit %d, stderr %q", code, stderr)
	}
	dat := filepath.Join(dir, "seeded.dat")
	seededFile(t, dat)
	if code, _, stderr := apriori(t, "-engine", "btree", dat); code != 1 || !strings.Contains(stderr, "btree") {
		t.Errorf("-engine btree: exit %d, stderr %q", code, stderr)
	}
	if _, err := os.Stat("/dev/full"); err == nil {
		if code, _, stderr := apriori(t, "-minsup", "0.08", "-save", "/dev/full", dat); code != 1 || !strings.HasPrefix(stderr, "apriori: ") {
			t.Errorf("-save /dev/full: exit %d, stderr %q", code, stderr)
		}
	}
}
