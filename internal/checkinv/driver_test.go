package checkinv

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// writeTree lays out a file tree under a temp root and returns it.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, content := range files {
		p := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestStaleRulePerSite asserts a directive is used only when every rule it
// names suppressed a finding: over a line with a walltime finding alone,
// //checkinv:allow rawchan,walltime is stale for rawchan, and the debt
// report names that rule.
func TestStaleRulePerSite(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.22\n",
		"internal/core/core.go": `package core

import "time"

func Tick() time.Time { return time.Now() } //checkinv:allow rawchan,walltime reason
`,
	})
	res, err := RunTree(RunOptions{Dir: root})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) != 0 {
		t.Fatalf("findings = %v, want the walltime one suppressed", res.Findings)
	}
	if len(res.Allows) != 1 {
		t.Fatalf("allow sites = %+v, want one", res.Allows)
	}
	if a := res.Allows[0]; a.Used || !slices.Equal(a.Idle, []string{"rawchan"}) {
		t.Errorf("site used=%v idle=%v, want stale for rawchan alone", a.Used, a.Idle)
	}
	var b strings.Builder
	WriteDebt(&b, DebtEntries(res.Allows, root))
	if !strings.Contains(b.String(), "STALE(rawchan)") || !strings.Contains(b.String(), "1 stale") {
		t.Errorf("debt report does not name the idle rule:\n%s", b.String())
	}
}

// TestUnresolvableImportIsTypeError asserts an import that does not
// resolve — go list finds no such package, or a module package fails to
// type-check — is a type error of its importer, not a load error: the
// importer is still analyzed and its walltime finding reported.
func TestUnresolvableImportIsTypeError(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.22\n",
		"internal/core/core.go": `package core

import (
	"time"

	"nosuch/pkg"
)

var _ = pkg.V

func Tick() time.Time { return time.Now() }
`,
		"internal/broken/broken.go": "package broken\n\nvar V int = \"one\"\n",
		"internal/user/user.go":     "package user\n\nimport \"tmpmod/internal/broken\"\n\nvar W = broken.V\n",
	})
	res, err := RunTree(RunOptions{Dir: root})
	if err != nil {
		t.Fatalf("RunTree: %v", err)
	}
	want := []string{
		"tmpmod/internal/broken (1 type errors)",
		"tmpmod/internal/core (1 type errors)",
		"tmpmod/internal/user (1 type errors)",
	}
	if !slices.Equal(res.Stats.TypeErrorPkgs, want) {
		t.Errorf("type-error packages = %q, want %q", res.Stats.TypeErrorPkgs, want)
	}
	if len(res.Findings) != 1 || res.Findings[0].Rule != "walltime" {
		t.Errorf("findings = %v, want the walltime one", res.Findings)
	}
}
