package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"parapriori"
	"parapriori/internal/obsv"
)

var update = flag.Bool("update", false, "rewrite testdata/cli.golden")

// TestMain lets the test binary stand in for the command: re-executed with
// PARMINER_TEST_MAIN set it runs main() on its arguments, so the tests drive
// the real flag parsing, exit codes and output without a separate build.
func TestMain(m *testing.M) {
	if os.Getenv("PARMINER_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run runs the command and returns (exit code, stdout, stderr).
func run(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "PARMINER_TEST_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	code := 0
	if err := cmd.Run(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("parminer %v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	return code, stdout.String(), stderr.String()
}

// parminer runs the command and returns its stdout; a non-zero exit fails
// the test with the command's stderr.
func parminer(t *testing.T, args ...string) string {
	t.Helper()
	code, stdout, stderr := run(t, args...)
	if code != 0 {
		t.Fatalf("parminer %s: exit %d\n%s", strings.Join(args, " "), code, stderr)
	}
	return stdout
}

// seededData generates the tests' transaction set: small enough that no
// rank's flight ring overflows at four processors, so the ring dump is
// pinned by the same bytes as the full trace.
func seededData(t *testing.T) *parapriori.Dataset {
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
	return data
}

// wallToken is the one wall-clock value in parminer's text output.
var wallToken = regexp.MustCompile(`\(emulated [^)]* wall\)`)

func fileSHA(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(raw))
}

// overclaim is a malformed binary dataset: 15 bytes whose header claims 2^33
// transactions over 10 items and which then hold one.
const overclaim = "PAPD\x01\x0a\x80\x80\x80\x80\x20\x00\x02\x01\x02"

// TestGoldenCLI pins parminer's flags and output formats: the text summary
// with -passes and -timeline, the -json summary, the out-of-core read
// columns, the bytes of the -trace and -flight files, and a malformed input
// refused in one line.
func TestGoldenCLI(t *testing.T) {
	dir := t.TempDir()
	data := seededData(t)
	dat := filepath.Join(dir, "seeded.dat")
	f, err := os.Create(dat)
	if err != nil {
		t.Fatal(err)
	}
	if err := parapriori.WriteDataset(f, data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	store := filepath.Join(dir, "store")
	if _, err := parapriori.WritePartitionedDataset(store, data,
		parapriori.PartitionOptions{Partitions: 4, BlockBytes: 4096}); err != nil {
		t.Fatal(err)
	}
	traceFile, flightFile := filepath.Join(dir, "trace.json"), filepath.Join(dir, "flight.json")

	var got strings.Builder
	section := func(args ...string) string {
		out := wallToken.ReplaceAllString(parminer(t, args...), "(emulated <wall> wall)")
		shown := strings.ReplaceAll(strings.Join(args, " "), dir, "$TMP")
		fmt.Fprintf(&got, "$ parminer %s\n%s\n", shown, out)
		return out
	}

	text := section("-algo", "idd", "-p", "4", "-minsup", "0.05", "-passes", "-timeline",
		"-trace", traceFile, "-flight", flightFile, dat)
	fmt.Fprintf(&got, "sha256 trace.json  %s\nsha256 flight.json %s\n\n", fileSHA(t, traceFile), fileSHA(t, flightFile))
	section("-algo", "hd", "-p", "4", "-minsup", "0.05", "-json", dat)
	section("-algo", "cd", "-p", "4", "-minsup", "0.05", "-machine", "sp2", "-engine", "bitset",
		"-backend", "ooc", "-store", store, "-passes")

	bad := filepath.Join(dir, "overclaim.bin")
	if err := os.WriteFile(bad, []byte(overclaim), 0o666); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := run(t, "-algo", "cd", "-p", "4", bad)
	fmt.Fprintf(&got, "$ parminer -algo cd -p 4 $TMP/overclaim.bin\nexit %d\n%s%s\n", code, stdout, stderr)

	// The Gantt chart parminer prints is the chart `trace -timeline -width
	// 100` renders from the trace file the same invocation wrote.
	tf, err := os.Open(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := obsv.ReadTrace(tf)
	tf.Close()
	if err != nil {
		t.Fatal(err)
	}
	var chart strings.Builder
	if err := obsv.WriteTimeline(&chart, tr, 100); err != nil {
		t.Fatal(err)
	}
	if i := strings.Index(text, "virtual time 0 .."); i < 0 || text[i:] != chart.String() {
		t.Errorf("-timeline block differs from the trace file's chart:\nparminer:\n%s\ntrace -timeline -width 100:\n%s", text, chart.String())
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

// TestUsageErrors pins the exit code and message of the misuse paths.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "usage: parminer"},
		{[]string{"-backend", "ooc", "x.dat"}, "-backend ooc requires -store"},
		{[]string{"-store", "dir", "x.dat"}, "mutually exclusive"},
	} {
		code, _, stderr := run(t, tc.args...)
		if code != 2 {
			t.Errorf("parminer %v: exit %d, want 2", tc.args, code)
		}
		if !strings.Contains(stderr, tc.want) {
			t.Errorf("parminer %v: stderr %q lacks %q", tc.args, stderr, tc.want)
		}
	}
}
