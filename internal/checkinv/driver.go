package checkinv

import (
	"fmt"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// RunOptions configures one driver invocation.
type RunOptions struct {
	// Dir is the working directory patterns resolve against.
	Dir string
	// Patterns are package patterns ("./...", "internal/core", …); empty
	// means "./...".
	Patterns []string
	// Analyzers is the rule set to apply (default Analyzers()).
	Analyzers []*Analyzer
	// AllPkgs applies every rule to every package, ignoring path scopes.
	AllPkgs bool
	// CacheDir enables the per-package findings cache rooted there; empty
	// disables caching.
	CacheDir string
}

// RunStats describes where one invocation spent its time.
type RunStats struct {
	// Dirs is the number of matched package directories, Packages the
	// number of analyzed packages (a directory with an external test
	// package counts twice, a Go-free one zero).
	Dirs     int
	Packages int
	// CacheHits / CacheMisses count directories served from / missing in
	// the cache.  Without a cache every directory is a miss.
	CacheHits   int
	CacheMisses int
	// LoadDuration covers hashing, cache probes, parsing and type-checking;
	// AnalyzeDuration covers the analyzer runs.
	LoadDuration    time.Duration
	AnalyzeDuration time.Duration
	// TypeErrorPkgs lists packages with type-check diagnostics ("path (n
	// errors)"): findings there may be incomplete.
	TypeErrorPkgs []string
}

// RunResult is the outcome of one driver invocation.
type RunResult struct {
	Findings []Finding
	// Allows is every //checkinv:allow site in the analyzed packages with
	// usage marked — the input to the suppression-debt report.
	Allows []AllowSite
	Stats  RunStats
}

// RunTree is the driver: resolve patterns to directories, serve unchanged
// directories from the cache, parse/type-check/analyze the rest, and merge
// everything into one deterministic finding list.
func RunTree(opt RunOptions) (*RunResult, error) {
	if len(opt.Patterns) == 0 {
		opt.Patterns = []string{"./..."}
	}
	if opt.Analyzers == nil {
		opt.Analyzers = Analyzers()
	}
	root, modPath, err := ModuleRoot(opt.Dir)
	if err != nil {
		return nil, err
	}
	loader := NewLoader()
	dirs, err := loader.Dirs(opt.Dir, opt.Patterns)
	if err != nil {
		return nil, err
	}

	res := &RunResult{}
	res.Stats.Dirs = len(dirs)
	loadStart := time.Now()

	var cache *Cache
	if opt.CacheDir != "" {
		cache, err = NewCache(opt.CacheDir)
		if err != nil {
			return nil, err
		}
	}
	config := driverConfig(opt)

	// Probe the cache for every directory concurrently; the deep hashes
	// share a memo, so the whole tree is hashed once.
	keys := make([]string, len(dirs))
	entries := make([]*cacheEntry, len(dirs))
	if cache != nil {
		keyErrs := make([]error, len(dirs))
		var wg sync.WaitGroup
		for i, d := range dirs {
			i, d := i, d
			wg.Add(1)
			go func() {
				defer wg.Done()
				keys[i], keyErrs[i] = cache.Key(d, root, modPath, config)
				if keyErrs[i] == nil {
					entries[i] = cache.Get(keys[i])
				}
			}()
		}
		wg.Wait()
		for _, err := range keyErrs {
			if err != nil {
				return nil, err
			}
		}
	}

	// Load and analyze the misses.
	var missDirs []string
	missAt := map[string]int{}
	for i, e := range entries {
		if e == nil {
			missAt[dirs[i]] = i
			missDirs = append(missDirs, dirs[i])
		} else {
			res.Stats.CacheHits++
		}
	}
	res.Stats.CacheMisses = len(missDirs)

	pkgs, err := loader.LoadDirs(missDirs, root, modPath)
	if err != nil {
		return nil, err
	}
	res.Stats.LoadDuration = time.Since(loadStart)

	analyzeStart := time.Now()
	results := RunPackages(pkgs, opt.Analyzers, opt.AllPkgs)

	// Assemble fresh entries per missed directory and store them.
	fresh := map[string]*cacheEntry{}
	for _, d := range missDirs {
		fresh[d] = &cacheEntry{}
	}
	for i, pkg := range pkgs {
		e := fresh[pkg.Dir]
		if e == nil { // filepath.Clean differences; fall back to linear probe
			for _, d := range missDirs {
				if sameDir(d, pkg.Dir) {
					e = fresh[d]
					break
				}
			}
		}
		if e == nil {
			continue
		}
		e.Packages = append(e.Packages, packEntry(root, pkg, results[i]))
	}
	if cache != nil {
		for _, d := range missDirs {
			if err := cache.Put(keys[missAt[d]], fresh[d]); err != nil {
				return nil, err
			}
		}
	}

	// Merge: cached entries and fresh results, rehydrated to absolute
	// positions, then the canonical sort.
	for i, e := range entries {
		if e == nil {
			e = fresh[dirs[i]]
		}
		if e == nil {
			continue
		}
		for _, cp := range e.Packages {
			res.Stats.Packages++
			if cp.TypeErrors > 0 {
				res.Stats.TypeErrorPkgs = append(res.Stats.TypeErrorPkgs,
					fmt.Sprintf("%s (%d type errors)", cp.Path, cp.TypeErrors))
			}
			for _, f := range cp.Findings {
				res.Findings = append(res.Findings, Finding{
					Pos:     token.Position{Filename: filepath.Join(root, filepath.FromSlash(f.File)), Line: f.Line, Column: f.Column},
					Rule:    f.Rule,
					Message: f.Message,
				})
			}
			for _, a := range cp.Allows {
				a.File = filepath.Join(root, filepath.FromSlash(a.File))
				res.Allows = append(res.Allows, a)
			}
		}
	}
	res.Stats.AnalyzeDuration = time.Since(analyzeStart)
	SortFindings(res.Findings)
	sort.Slice(res.Allows, func(i, j int) bool {
		if res.Allows[i].File != res.Allows[j].File {
			return res.Allows[i].File < res.Allows[j].File
		}
		return res.Allows[i].Line < res.Allows[j].Line
	})
	sort.Strings(res.Stats.TypeErrorPkgs)
	return res, nil
}

// driverConfig folds every finding-relevant option into the cache key:
// each enabled rule with its scope, so a scope change re-analyzes, and the
// scope mode.
func driverConfig(opt RunOptions) string {
	var b strings.Builder
	for _, az := range opt.Analyzers {
		fmt.Fprintf(&b, "rule=%s scope=%s\n", az.Name, strings.Join(az.Scope, ","))
	}
	fmt.Fprintf(&b, "allpkgs=%t", opt.AllPkgs)
	return b.String()
}

// packEntry converts one package's results to cache form with
// module-relative file names.
func packEntry(root string, pkg *Package, r PkgResult) cachedPackage {
	cp := cachedPackage{
		Rel:        pkg.Rel,
		Path:       pkg.Path,
		TypeErrors: len(pkg.TypeErrors),
		Findings:   []cachedFinding{},
		Allows:     []AllowSite{},
	}
	for _, f := range r.Findings {
		cp.Findings = append(cp.Findings, cachedFinding{
			File:    relTo(root, f.Pos.Filename),
			Line:    f.Pos.Line,
			Column:  f.Pos.Column,
			Rule:    f.Rule,
			Message: f.Message,
		})
	}
	for _, a := range r.Allows {
		a.File = relTo(root, a.File)
		cp.Allows = append(cp.Allows, a)
	}
	return cp
}

// relTo makes path module-relative (slash form) when possible.
func relTo(root, path string) string {
	if rel, err := filepath.Rel(root, path); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(path)
}

// sameDir reports whether two paths name the same directory after
// cleaning.
func sameDir(a, b string) bool {
	aa, err1 := filepath.Abs(a)
	bb, err2 := filepath.Abs(b)
	return err1 == nil && err2 == nil && aa == bb
}
