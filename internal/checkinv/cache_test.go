package checkinv

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
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

// tmpModule is a minimal module with one walltime violation in scope
// (internal/core) and one clean package.  Imports are stdlib-only so the
// source importer resolves them regardless of the process working
// directory.
func tmpModule(t *testing.T) string {
	return writeTree(t, map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.22\n",
		"internal/core/core.go": `package core

import "time"

func Tick() time.Time { return time.Now() }
`,
		"internal/util/util.go": `package util

func Add(a, b int) int { return a + b }
`,
	})
}

// TestCacheColdVsWarmIdentical is the acceptance property: a warm run is
// served entirely from the cache and reports byte-identical findings.
func TestCacheColdVsWarmIdentical(t *testing.T) {
	root := tmpModule(t)
	opts := RunOptions{Dir: root, CacheDir: filepath.Join(root, ".cache")}

	cold, err := RunTree(opts)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	if cold.Stats.CacheHits != 0 || cold.Stats.CacheMisses != cold.Stats.Dirs {
		t.Errorf("cold run: hits=%d misses=%d over %d dirs, want all misses",
			cold.Stats.CacheHits, cold.Stats.CacheMisses, cold.Stats.Dirs)
	}
	if len(cold.Findings) != 1 || cold.Findings[0].Rule != "walltime" {
		t.Fatalf("cold findings = %v, want exactly the seeded walltime violation", cold.Findings)
	}

	warm, err := RunTree(opts)
	if err != nil {
		t.Fatalf("warm run: %v", err)
	}
	if warm.Stats.CacheMisses != 0 || warm.Stats.CacheHits == 0 {
		t.Errorf("warm run: hits=%d misses=%d, want all hits", warm.Stats.CacheHits, warm.Stats.CacheMisses)
	}
	if len(warm.Findings) != len(cold.Findings) {
		t.Fatalf("warm findings = %v, cold = %v", warm.Findings, cold.Findings)
	}
	for i := range warm.Findings {
		if warm.Findings[i] != cold.Findings[i] {
			t.Errorf("finding %d differs: cold %v, warm %v", i, cold.Findings[i], warm.Findings[i])
		}
	}
}

// TestCacheInvalidation edits one package and asserts exactly it misses
// while the untouched package still hits, and the new violation is found.
func TestCacheInvalidation(t *testing.T) {
	root := tmpModule(t)
	opts := RunOptions{Dir: root, CacheDir: filepath.Join(root, ".cache")}
	if _, err := RunTree(opts); err != nil {
		t.Fatalf("cold run: %v", err)
	}

	core := filepath.Join(root, "internal", "core", "core.go")
	src := `package core

import "time"

func Tick() time.Time { return time.Now() }

func Tock() time.Time { return time.Now() }
`
	if err := os.WriteFile(core, []byte(src), 0o666); err != nil {
		t.Fatal(err)
	}

	res, err := RunTree(opts)
	if err != nil {
		t.Fatalf("edited run: %v", err)
	}
	if res.Stats.CacheMisses != 1 {
		t.Errorf("misses = %d after editing one package, want 1 (hits=%d)",
			res.Stats.CacheMisses, res.Stats.CacheHits)
	}
	if len(res.Findings) != 2 {
		t.Errorf("findings after edit = %v, want both walltime violations", res.Findings)
	}
}

// TestCacheKeyTracksDependencies asserts the key of a package changes when
// a module-internal dependency's source changes — and only then — without
// needing any type-checking.
func TestCacheKeyTracksDependencies(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":      "module tmpmod\n\ngo 1.22\n",
		"a/a.go":      "package a\n\nimport \"tmpmod/b\"\n\nvar _ = b.V\n",
		"b/b.go":      "package b\n\nvar V = 1\n",
		"c/c.go":      "package c\n\nvar W = 2\n",
		"b/b_test.go": "package b\n\nvar T = V\n",
	})
	key := func(pkg string) string {
		c, err := NewCache(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		k, err := c.Key(filepath.Join(root, pkg), root, "tmpmod", "cfg")
		if err != nil {
			t.Fatal(err)
		}
		return k
	}

	a0, b0, c0 := key("a"), key("b"), key("c")
	if err := os.WriteFile(filepath.Join(root, "b", "b.go"), []byte("package b\n\nvar V = 42\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	a1, b1, c1 := key("a"), key("b"), key("c")

	if a1 == a0 {
		t.Error("a's key unchanged after its dependency b changed")
	}
	if b1 == b0 {
		t.Error("b's key unchanged after its own source changed")
	}
	if c1 != c0 {
		t.Error("c's key changed though nothing it can see did")
	}

	// A dependency's _test.go files cannot change a dependent's findings,
	// so a's key must not move; b's own test files are analyzed with b, so
	// its key must.
	if err := os.WriteFile(filepath.Join(root, "b", "b_test.go"), []byte("package b\n\nvar T = V + 1\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	if a2 := key("a"); a2 != a1 {
		t.Error("a's key changed when only b's test file did")
	}
	if b2 := key("b"); b2 == b1 {
		t.Error("b's key unchanged after its own test file changed")
	}
}

// TestCacheKeyConcurrentStable asserts keys computed concurrently, as
// RunTree computes them, equal keys computed one at a time: a directory
// another goroutine is still hashing is not an import cycle.
func TestCacheKeyConcurrentStable(t *testing.T) {
	files := map[string]string{
		"go.mod":       "module tmpmod\n\ngo 1.22\n",
		"base/base.go": "package base\n\nimport \"tmpmod/leaf\"\n\nvar V = leaf.V\n",
		"leaf/leaf.go": "package leaf\n\nvar V = 1\n",
	}
	dirs := []string{"base", "leaf"}
	for i := 0; i < 16; i++ {
		dir := fmt.Sprintf("p%d", i)
		files[dir+"/p.go"] = "package " + dir + "\n\nimport \"tmpmod/base\"\n\nvar V = base.V\n"
		dirs = append(dirs, dir)
	}
	root := writeTree(t, files)
	keys := func(concurrent bool) []string {
		c, err := NewCache(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(dirs))
		var wg sync.WaitGroup
		for i, d := range dirs {
			i, d := i, d
			key := func() {
				defer wg.Done()
				k, err := c.Key(filepath.Join(root, d), root, "tmpmod", "cfg")
				if err != nil {
					t.Error(err)
				}
				out[i] = k
			}
			wg.Add(1)
			if concurrent {
				go key()
			} else {
				key()
			}
		}
		wg.Wait()
		return out
	}
	want := keys(false)
	for rep := 0; rep < 20; rep++ {
		if got := keys(true); !slices.Equal(got, want) {
			t.Fatalf("repetition %d: concurrent keys differ from sequential ones", rep)
		}
	}
}

// TestCacheKeyTracksScope asserts a rule's scope is part of the key: the
// same tree under the same rule names but one narrowed scope must not hit
// entries analyzed under the old one.
func TestCacheKeyTracksScope(t *testing.T) {
	root := tmpModule(t)
	c, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := func(analyzers []*Analyzer) string {
		k, err := c.Key(filepath.Join(root, "internal", "core"), root, "tmpmod",
			driverConfig(RunOptions{Analyzers: analyzers}))
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	narrowed := *RawchanAnalyzer
	narrowed.Scope = []string{"internal/core"}
	base := key(Analyzers())
	if again := key(Analyzers()); again != base {
		t.Fatal("key is not a function of the tree and the rule set")
	}
	var swapped []*Analyzer
	for _, az := range Analyzers() {
		if az == RawchanAnalyzer {
			az = &narrowed
		}
		swapped = append(swapped, az)
	}
	if key(swapped) == base {
		t.Error("key unchanged after rawchan's scope changed")
	}
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

// TestCacheRejectsForeignVersion asserts entries from another analyzer
// version never hydrate.
func TestCacheRejectsForeignVersion(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("deadbeef", &cacheEntry{Packages: []cachedPackage{{Rel: "x"}}}); err != nil {
		t.Fatal(err)
	}
	if got := c.Get("deadbeef"); got == nil {
		t.Fatal("freshly stored entry did not hydrate")
	}
	// Rewrite the entry with a foreign version in place.
	p := filepath.Join(dir, "deadbeef.json")
	stale := []byte(`{"version":"checkinv-v0.1","packages":[]}`)
	if err := os.WriteFile(p, stale, 0o666); err != nil {
		t.Fatal(err)
	}
	if got := c.Get("deadbeef"); got != nil {
		t.Errorf("stale-version entry hydrated: %+v", got)
	}
}
