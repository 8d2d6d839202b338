// Package checkinv is a zero-dependency static-analysis suite enforcing the
// project's simulation invariants.  The emulated machine in internal/cluster
// reproduces the paper's CD/DD/IDD/HD results deterministically under a
// virtual-time cost model, which promotes a class of Go idioms from style
// nits to silent correctness bugs:
//
//   - walltime: reading the wall clock (time.Now, time.Since, time.Sleep, …)
//     inside simulation packages mixes real time into the virtual clock and
//     corrupts every reported figure.
//   - mapiter: ranging over a map while appending to an outer slice, sending
//     on a channel or writing output leaks Go's randomized map iteration
//     order into mined itemsets and per-pass statistics.
//   - rawchan: raw channel operations in the packages whose code runs inside
//     a processor program (core and the mining kernels it drives) bypass the
//     cluster comm layer, so the traffic escapes the cost model (and the
//     virtual clocks) entirely.  Real-clock serving code is out of its scope.
//   - floatcmp: == / != on floating-point operands in the analysis and
//     experiments packages, where model/measured comparisons must tolerate
//     rounding.
//
// Each rule's path scope is data (Analyzer.Scope).  Findings at
// intentional sites are suppressed with an annotation:
//
//	//checkinv:allow <rule>[,<rule>...] [reason]
//
// placed either at the end of the offending line or on a line of its own
// directly above it.  A directive is stale unless every rule it names
// suppressed a finding.  The driver is cmd/checkinv; see DESIGN.md's
// "Correctness tooling" section for the full grammar and rationale.
package checkinv

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Finding is one rule violation at one source position.
type Finding struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the finding in the canonical "file:line: [rule] message"
// form the driver prints and the fixture tests match against.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Message)
}

// Analyzer is one invariant checker.
type Analyzer struct {
	// Name is the rule name used in output and allow annotations.
	Name string
	// Doc is a one-line description for -list.
	Doc string
	// Scope lists the module-relative directories ("internal/core", "cmd")
	// the rule applies to, each with everything beneath it; nil means every
	// package.  The runner consults it; Check itself is scope-free so tests
	// can point it at fixtures.
	Scope []string
	// Check inspects one package and reports findings through the pass.
	Check func(p *Pass)
}

// Pass hands one analyzer the parsed and type-checked package under
// inspection.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Info  *types.Info

	findings []Finding
	rule     string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.findings = append(p.findings, Finding{
		Pos:     p.Fset.Position(pos),
		Rule:    p.rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of an expression, or nil when type-checking could
// not resolve it.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// pkgNameOf returns the imported package path when the identifier denotes an
// imported package ("time" in time.Now), or "".
func (p *Pass) pkgNameOf(id *ast.Ident) string {
	if pn, ok := p.Info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// isBuiltin reports whether the call expression invokes the named builtin
// (append, close, make, …), respecting shadowing via the type info.
func (p *Pass) isBuiltin(call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	obj := p.Info.Uses[id]
	_, builtin := obj.(*types.Builtin)
	return builtin
}

// Analyzers returns every invariant checker in deterministic order: the
// four original AST rules, then the dataflow-aware v2 suite (snapshot
// immutability, goroutine lifecycle, hot-path allocation discipline).
func Analyzers() []*Analyzer {
	return []*Analyzer{
		WalltimeAnalyzer, MapiterAnalyzer, RawchanAnalyzer, FloatcmpAnalyzer,
		SnapshotmutAnalyzer, GoroleakAnalyzer, HotallocAnalyzer,
	}
}

// inScope reports whether the analyzer applies to the package at the
// module-relative directory rel.
func (az *Analyzer) inScope(rel string) bool {
	return az.Scope == nil || underAny(rel, az.Scope...)
}

// underAny reports whether the module-relative directory rel is one of the
// given roots or nested beneath one.
func underAny(rel string, roots ...string) bool {
	for _, r := range roots {
		if rel == r || strings.HasPrefix(rel, r+"/") {
			return true
		}
	}
	return false
}

// PkgResult is the analysis outcome for one package: the surviving
// findings plus every //checkinv:allow site seen, with usage marked — the
// unit the driver merges and the debt report aggregates.
type PkgResult struct {
	Findings []Finding
	Allows   []AllowSite
}

// RunPackages analyzes every package concurrently and returns one result
// per package, in input order.
func RunPackages(pkgs []*Package, analyzers []*Analyzer, allPaths bool) []PkgResult {
	results := make([]PkgResult, len(pkgs))
	var wg sync.WaitGroup
	for i, pkg := range pkgs {
		i, pkg := i, pkg
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = runPackage(pkg, analyzers, allPaths)
		}()
	}
	wg.Wait()
	return results
}

// runPackage applies the analyzers to one package and filters the findings
// through its allow annotations, marking each annotation used or not.
func runPackage(pkg *Package, analyzers []*Analyzer, allPaths bool) PkgResult {
	allow := collectAllows(pkg.Fset, pkg.Files)
	var res PkgResult
	for _, az := range analyzers {
		if !allPaths && !az.inScope(pkg.Rel) {
			continue
		}
		pass := &Pass{Fset: pkg.Fset, Files: pkg.Files, Info: pkg.Info, rule: az.Name}
		az.Check(pass)
		for _, f := range pass.findings {
			if site := allow.allows(f.Pos.Filename, f.Pos.Line, f.Rule); site != nil {
				site.use(f.Rule)
				continue
			}
			res.Findings = append(res.Findings, f)
		}
	}
	SortFindings(res.Findings)
	res.Allows = allow.sites()
	return res
}

// SortFindings orders findings by file, line, rule and message — the
// canonical, byte-stable output order.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
}

// allowDirective is the comment prefix of a suppression annotation.
const allowDirective = "//checkinv:allow"

// AllowSite is one //checkinv:allow directive in the source: where it is,
// which rules it suppresses, the free-text reason, and which of its rules
// no finding needed in the last analysis — the raw material of the
// suppression-debt report.  Used holds only when Idle is empty: a
// directive with one idle rule is stale for that rule.
type AllowSite struct {
	File   string   `json:"file"`
	Line   int      `json:"line"`
	Rules  []string `json:"rules"`
	Reason string   `json:"reason,omitempty"`
	Used   bool     `json:"used"`
	Idle   []string `json:"idle,omitempty"`
}

// use records that the directive suppressed a finding of rule — through
// its "all" entry when it does not name the rule itself.
func (s *AllowSite) use(rule string) {
	if !slices.Contains(s.Rules, rule) {
		rule = "all"
	}
	s.Idle = slices.DeleteFunc(s.Idle, func(r string) bool { return r == rule })
	s.Used = len(s.Idle) == 0
}

// allowSet indexes allow directives by (file, line, rule), sharing one
// *AllowSite per directive so usage marking reaches the debt report.
//
// Adjacency rules (explicit since v2): the end-of-line form covers exactly
// its own line; the standalone form (a directive alone on its line) covers
// the next line holding any non-comment source token — skipping blank
// lines, build-tag comments and other interposed comments, so a directive
// above a spaced-out composite-literal entry still lands on it.
type allowSet struct {
	byKey map[string]map[int]map[string]*AllowSite
	all   []*AllowSite
}

func (a *allowSet) add(file string, line int, rule string, site *AllowSite) {
	if a.byKey == nil {
		a.byKey = make(map[string]map[int]map[string]*AllowSite)
	}
	byLine := a.byKey[file]
	if byLine == nil {
		byLine = make(map[int]map[string]*AllowSite)
		a.byKey[file] = byLine
	}
	rules := byLine[line]
	if rules == nil {
		rules = make(map[string]*AllowSite)
		byLine[line] = rules
	}
	rules[rule] = site
}

// allows returns the directive covering (file, line, rule), or nil.
func (a *allowSet) allows(file string, line int, rule string) *AllowSite {
	rules := a.byKey[file][line]
	if s := rules[rule]; s != nil {
		return s
	}
	return rules["all"]
}

// sites returns every directive in deterministic (file, line) order.
func (a *allowSet) sites() []AllowSite {
	out := make([]AllowSite, 0, len(a.all))
	for _, s := range a.all {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].Line < out[j].Line
	})
	return out
}

// collectAllows scans every comment for //checkinv:allow directives and
// resolves each to the lines it covers under the explicit adjacency rules.
func collectAllows(fset *token.FileSet, files []*ast.File) *allowSet {
	out := &allowSet{}
	for _, f := range files {
		content := contentLines(fset, f)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				if !strings.HasPrefix(text, allowDirective) {
					continue
				}
				rest := strings.TrimPrefix(text, allowDirective)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //checkinv:allowed — not our directive
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				var rules []string
				for _, rule := range strings.Split(fields[0], ",") {
					if rule = strings.TrimSpace(rule); rule != "" {
						rules = append(rules, rule)
					}
				}
				if len(rules) == 0 {
					continue
				}
				site := &AllowSite{
					File:   pos.Filename,
					Line:   pos.Line,
					Rules:  rules,
					Idle:   slices.Clone(rules),
					Reason: strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), fields[0])),
				}
				out.all = append(out.all, site)
				covered := []int{pos.Line}
				if !content[pos.Line] {
					// Standalone form: cover the next non-comment source
					// line, however many blank or comment lines intervene.
					for l := pos.Line + 1; l <= pos.Line+maxAllowSkip; l++ {
						if content[l] {
							covered = append(covered, l)
							break
						}
					}
				}
				for _, rule := range rules {
					for _, l := range covered {
						out.add(pos.Filename, l, rule, site)
					}
				}
			}
		}
	}
	return out
}

// maxAllowSkip bounds how far below a standalone directive the covered
// statement may sit.  Unbounded coverage would let a directive at the top
// of a function silently suppress a distant line; a small window keeps the
// annotation next to its evidence.
const maxAllowSkip = 10

// contentLines reports which lines of the file hold non-comment source
// tokens.  Comments (including build tags) and blank lines are absent, so
// the standalone allow form can skip over them.
func contentLines(fset *token.FileSet, f *ast.File) map[int]bool {
	out := map[int]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.Comment, *ast.CommentGroup:
			return false
		case *ast.File:
			out[fset.Position(n.Pos()).Line] = true // the package clause
			return true
		}
		out[fset.Position(n.Pos()).Line] = true
		out[fset.Position(n.End()).Line] = true
		return true
	})
	return out
}
