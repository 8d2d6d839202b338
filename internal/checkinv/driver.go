package checkinv

import (
	"fmt"
	"sort"
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
}

// RunStats describes where one invocation spent its time.
type RunStats struct {
	// Dirs is the number of matched package directories, Packages the
	// number of analyzed packages (a directory with an external test
	// package counts twice, a Go-free one zero).
	Dirs     int
	Packages int
	// LoadDuration covers parsing, go list and type-checking;
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

// RunTree is the driver: resolve patterns to directories, load them,
// analyze every package, and merge the results into one deterministic
// finding list.
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
	dirs, err := patternDirs(opt.Dir, opt.Patterns)
	if err != nil {
		return nil, err
	}

	res := &RunResult{}
	res.Stats.Dirs = len(dirs)
	start := time.Now()
	pkgs, err := NewLoader(root, modPath).LoadDirs(dirs)
	if err != nil {
		return nil, err
	}
	res.Stats.LoadDuration = time.Since(start)

	start = time.Now()
	res.Stats.Packages = len(pkgs)
	for i, r := range RunPackages(pkgs, opt.Analyzers, opt.AllPkgs) {
		if n := len(pkgs[i].TypeErrors); n > 0 {
			res.Stats.TypeErrorPkgs = append(res.Stats.TypeErrorPkgs,
				fmt.Sprintf("%s (%d type errors)", pkgs[i].Path, n))
		}
		res.Findings = append(res.Findings, r.Findings...)
		res.Allows = append(res.Allows, r.Allows...)
	}
	res.Stats.AnalyzeDuration = time.Since(start)
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
