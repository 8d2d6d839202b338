package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/cli.golden")

// TestMain lets the test binary stand in for the command: re-executed with
// DATAGEN_TEST_MAIN set it runs main() on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("DATAGEN_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// datagen runs the command and returns (exit code, stdout, stderr).  A run
// that outlives a minute is killed and fails the test.
func datagen(t *testing.T, args ...string) (int, []byte, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DATAGEN_TEST_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	code := 0
	if err := cmd.Run(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("datagen %v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	if ctx.Err() != nil {
		t.Fatalf("datagen %v: killed after a minute", args)
	}
	return code, stdout.Bytes(), stderr.String()
}

// TestGoldenCLI pins the generator's bytes for a fixed seed in each output
// form — basket text on stdout, the compact binary file, the partitioned
// store — and the summary line of each.
func TestGoldenCLI(t *testing.T) {
	dir := t.TempDir()
	gen := []string{"-n", "300", "-items", "40", "-tlen", "6", "-plen", "3", "-patterns", "20", "-seed", "5"}
	bin, store := filepath.Join(dir, "d.bin"), filepath.Join(dir, "store")

	var got strings.Builder
	section := func(extra ...string) []byte {
		args := append(append([]string(nil), gen...), extra...)
		code, stdout, stderr := datagen(t, args...)
		if code != 0 {
			t.Fatalf("datagen %v: exit %d\n%s", args, code, stderr)
		}
		shown := strings.ReplaceAll(strings.Join(args, " ")+"\n"+stderr, dir, "$TMP")
		fmt.Fprintf(&got, "$ datagen %s", shown)
		return stdout
	}
	sum := func(name string, raw []byte) {
		fmt.Fprintf(&got, "sha256 %s %x\n", name, sha256.Sum256(raw))
	}

	text := section()
	sum("stdout", text)
	fmt.Fprintf(&got, "%s...\n\n", text[:bytes.IndexByte(text, '\n')])
	section("-format", "binary", "-o", bin)
	section("-store", store, "-partitions", "3", "-blockbytes", "512")
	files, err := filepath.Glob(filepath.Join(store, "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range append([]string{bin}, files...) {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sum(strings.TrimPrefix(path, dir+"/"), raw)
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

// TestUsageErrors pins the misuse paths: an unknown format is exit 2, a
// generator setting that cannot be honoured — a NaN mean length among
// them, which once never returned — or an -o that cannot be written is
// exit 1.  A refused setting is named once under one "datagen: " prefix,
// with or without -store.
func TestUsageErrors(t *testing.T) {
	if code, _, stderr := datagen(t, "-n", "10", "-format", "xml"); code != 2 || !strings.Contains(stderr, `unknown format "xml"`) {
		t.Errorf("-format xml: exit %d, stderr %q", code, stderr)
	}
	store := filepath.Join(t.TempDir(), "store")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-n", "-1"}, "NumTransactions -1"},
		{[]string{"-n", "50", "-tlen", "NaN"}, "AvgTxnLen NaN"},
		{[]string{"-n", "-1", "-store", store}, "NumTransactions -1"},
	} {
		code, _, stderr := datagen(t, tc.args...)
		if code != 1 || !strings.HasPrefix(stderr, "datagen: ") || strings.HasPrefix(stderr, "datagen: datagen: ") || !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: exit %d, stderr %q", tc.args, code, stderr)
		}
	}
	if _, err := os.Stat("/dev/full"); err == nil {
		if code, _, stderr := datagen(t, "-n", "10", "-o", "/dev/full"); code != 1 || !strings.HasPrefix(stderr, "datagen: ") {
			t.Errorf("-o /dev/full: exit %d, stderr %q", code, stderr)
		}
	}
}
