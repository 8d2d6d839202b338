package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parapriori/internal/checkinv"
)

// writeModule lays out a throwaway module with one in-scope walltime
// violation and one clean package, and returns its root.
func writeModule(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.22\n",
		"internal/core/core.go": `package core

import "time"

// Tick reads the wall clock — the seeded violation.
func Tick() time.Time { return time.Now() }
`,
		"internal/util/util.go": `package util

func Add(a, b int) int { return a + b }
`,
	}
	for name, content := range files {
		writeFile(t, root, name, content)
	}
	return root
}

// runIn invokes the driver in dir and returns (exit, stdout, stderr).
func runIn(t *testing.T, dir string, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(cwd)
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestEndToEndJSON(t *testing.T) {
	root := writeModule(t)
	code, stdout, stderr := runIn(t, root, "-json", "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (findings); stderr: %s", code, stderr)
	}
	var findings []struct {
		File    string `json:"file"`
		Line    int    `json:"line"`
		Rule    string `json:"rule"`
		Message string `json:"message"`
	}
	if err := json.Unmarshal([]byte(stdout), &findings); err != nil {
		t.Fatalf("stdout is not a JSON array: %v\n%s", err, stdout)
	}
	if len(findings) != 1 || findings[0].Rule != "walltime" {
		t.Fatalf("findings = %+v, want exactly the seeded walltime violation", findings)
	}
	if findings[0].File != filepath.Join("internal", "core", "core.go") {
		t.Errorf("finding file = %q, want cwd-relative internal/core/core.go", findings[0].File)
	}
}

// TestEndToEndRepeatable asserts two runs over the same tree print the
// same bytes.
func TestEndToEndRepeatable(t *testing.T) {
	root := writeModule(t)
	code1, out1, _ := runIn(t, root, "./...")
	code2, out2, _ := runIn(t, root, "./...")
	if code1 != 1 || code2 != 1 {
		t.Fatalf("exits = %d, %d, want 1, 1", code1, code2)
	}
	if out1 != out2 {
		t.Errorf("the two runs' findings differ:\nfirst: %s\nsecond: %s", out1, out2)
	}
}

// TestGoListFailureIsLoadError asserts a module go list cannot load (its
// go.mod does not parse) fails the run: RunTree returns an error naming go
// list, and the command exits 2.
func TestGoListFailureIsLoadError(t *testing.T) {
	root := writeModule(t)
	writeFile(t, root, "go.mod", "module tmpmod\n\ngo 1.22\nbogus directive\n")
	_, err := checkinv.RunTree(checkinv.RunOptions{Dir: root})
	if err == nil || !strings.Contains(err.Error(), "go list") {
		t.Errorf("RunTree error = %v, want one naming go list", err)
	}
	if code, stdout, stderr := runIn(t, root, "./..."); code != 2 || !strings.Contains(stderr, "go list") {
		t.Errorf("exit = %d, want 2 with go list's message\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
}

// writeFile replaces one module file.
func writeFile(t *testing.T, root, name, content string) {
	t.Helper()
	p := filepath.Join(root, filepath.FromSlash(name))
	if err := os.MkdirAll(filepath.Dir(p), 0o777); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, []byte(content), 0o666); err != nil {
		t.Fatal(err)
	}
}

// debtEntries runs -debt -json in root and decodes the report.
func debtEntries(t *testing.T, root string, args ...string) []checkinv.DebtEntry {
	t.Helper()
	code, stdout, stderr := runIn(t, root, append([]string{"-debt", "-json"}, args...)...)
	if code != 0 {
		t.Fatalf("-debt -json exit = %d; stderr: %s", code, stderr)
	}
	var entries []checkinv.DebtEntry
	if err := json.Unmarshal([]byte(stdout), &entries); err != nil {
		t.Fatalf("-debt -json output is not JSON: %v\n%s", err, stdout)
	}
	return entries
}

// TestEndToEndDebt asserts -debt reports the annotation with its rule and
// usage state, in both text and JSON forms.
func TestEndToEndDebt(t *testing.T) {
	root := writeModule(t)
	writeFile(t, root, "internal/core/core.go", `package core

import "time"

// Tick reads the wall clock on purpose.
//
//checkinv:allow walltime the test's own clock
func Tick() time.Time { return time.Now() }
`)

	code, stdout, stderr := runIn(t, root, "-debt", "./...")
	if code != 0 {
		t.Fatalf("-debt exit = %d, want 0; stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "walltime") || !strings.Contains(stdout, "used") {
		t.Errorf("-debt output = %q, want the walltime site reported as used", stdout)
	}
	if !strings.Contains(stdout, "1 allow site(s)") {
		t.Errorf("-debt output = %q, want the summary line", stdout)
	}

	entries := debtEntries(t, root, "./...")
	if len(entries) != 1 || !entries[0].Used || entries[0].Rules[0] != "walltime" {
		t.Errorf("-debt -json entries = %+v, want one used walltime site", entries)
	}

	// The annotated tree is clean.
	if code, stdout, stderr := runIn(t, root, "./..."); code != 0 {
		t.Errorf("annotated run exit = %d, want 0\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
}

// TestEndToEndRawchanScope pins rawchan to the virtual-clock packages: a
// goroutine in internal/core is a finding, the same joined goroutine in
// real-clock serving code is not, so an allow there is reported stale.
func TestEndToEndRawchanScope(t *testing.T) {
	spawn := func(pkg, allow string) string {
		return "package " + pkg + `

import "sync"

func Spawn() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done() }()` + allow + `
	wg.Wait()
}
`
	}
	root := writeModule(t)
	writeFile(t, root, "internal/core/core.go", spawn("core", ""))
	code, stdout, stderr := runIn(t, root, "./...")
	if code != 1 || !strings.Contains(stdout, "internal/core/core.go:8: [rawchan]") {
		t.Fatalf("goroutine in internal/core: exit = %d, want 1 with a rawchan finding\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}

	if err := os.RemoveAll(filepath.Join(root, "internal", "core")); err != nil {
		t.Fatal(err)
	}
	writeFile(t, root, "internal/distserve/spawn.go", spawn("distserve", " //checkinv:allow rawchan not needed"))
	if code, stdout, stderr := runIn(t, root, "./..."); code != 0 {
		t.Fatalf("goroutine in internal/distserve: exit = %d, want 0\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	entries := debtEntries(t, root, "./...")
	if len(entries) != 1 || entries[0].Used || entries[0].File != "internal/distserve/spawn.go" {
		t.Errorf("-debt -json entries = %+v, want the distserve site reported unused", entries)
	}
}

// TestEndToEndFixturesStayRed mirrors the CI gate: the driver must exit 1
// on every analyzer's fixture directory.
func TestEndToEndFixturesStayRed(t *testing.T) {
	repoRoot, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, rule := range []string{"walltime", "mapiter", "rawchan", "floatcmp", "snapshotmut", "goroleak", "hotalloc"} {
		fixture := filepath.Join("internal", "checkinv", "testdata", "src", rule)
		code, stdout, stderr := runIn(t, repoRoot, "-allpkgs", fixture)
		if code != 1 {
			t.Errorf("%s fixture: exit = %d, want 1\nstdout: %s\nstderr: %s", rule, code, stdout, stderr)
		}
		if !strings.Contains(stdout, "["+rule+"]") {
			t.Errorf("%s fixture: no [%s] finding in output:\n%s", rule, rule, stdout)
		}
	}
}

func TestListRules(t *testing.T) {
	code, stdout, _ := runIn(t, t.TempDir(), "-list")
	if code != 0 {
		t.Fatalf("-list exit = %d", code)
	}
	for _, rule := range []string{"walltime", "mapiter", "rawchan", "floatcmp", "snapshotmut", "goroleak", "hotalloc"} {
		if !strings.Contains(stdout, rule) {
			t.Errorf("-list output lacks %s:\n%s", rule, stdout)
		}
	}
	for _, scope := range []string{"scope: internal/core internal/apriori", "scope: every package"} {
		if !strings.Contains(stdout, scope) {
			t.Errorf("-list output lacks %q:\n%s", scope, stdout)
		}
	}
}
