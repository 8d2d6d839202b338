package checkinv

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// run applies the analyzers to the packages, honoring each analyzer's path
// scope unless allPaths is set, and returns the findings that survive the
// //checkinv:allow annotations, sorted by file, line and rule.
func run(pkgs []*Package, analyzers []*Analyzer, allPaths bool) []Finding {
	var out []Finding
	for _, res := range RunPackages(pkgs, analyzers, allPaths) {
		out = append(out, res.Findings...)
	}
	SortFindings(out)
	return out
}

func parseSrc(t *testing.T, fset *token.FileSet, name, src string) []*ast.File {
	t.Helper()
	f, err := parser.ParseFile(fset, name, src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return []*ast.File{f}
}

// analyzerByName returns the named analyzer, or nil.
func analyzerByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// loadFixture parses and type-checks one testdata/src/<name> fixture
// package with the production loader.
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	root, modPath, err := ModuleRoot(".")
	if err != nil {
		t.Fatalf("ModuleRoot: %v", err)
	}
	pkgs, err := NewLoader(root, modPath).LoadDir(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", name, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("fixture %s: no Go files", name)
	}
	pkg := pkgs[0]
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("fixture %s: type errors: %v", name, pkg.TypeErrors)
	}
	return pkg
}

// want is one expectation parsed from a `// want "regexp"` comment.
type want struct {
	file string
	line int
	re   *regexp.Regexp
}

func collectWants(t *testing.T, pkg *Package) []want {
	t.Helper()
	var out []want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				i := strings.Index(text, `// want "`)
				if i < 0 {
					continue
				}
				rest := text[i+len(`// want "`):]
				j := strings.LastIndex(rest, `"`)
				if j < 0 {
					t.Fatalf("malformed want comment: %s", text)
				}
				pos := pkg.Fset.Position(c.Pos())
				re, err := regexp.Compile(rest[:j])
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp: %v", pos.Filename, pos.Line, err)
				}
				out = append(out, want{file: pos.Filename, line: pos.Line, re: re})
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("fixture declares no wants")
	}
	return out
}

// checkFixture runs one analyzer over its fixture and matches findings
// against the want comments exactly: every want must be hit on its line,
// and no finding may lack a want.
func checkFixture(t *testing.T, analyzer string) {
	t.Helper()
	az := analyzerByName(analyzer)
	if az == nil {
		t.Fatalf("no analyzer %q", analyzer)
	}
	pkg := loadFixture(t, analyzer)
	findings := run([]*Package{pkg}, []*Analyzer{az}, true)
	if len(findings) == 0 {
		t.Fatalf("%s: analyzer found nothing; fixtures must contain deliberate violations", analyzer)
	}
	wants := collectWants(t, pkg)

	matched := make([]bool, len(findings))
	for _, w := range wants {
		hit := false
		for i, f := range findings {
			if matched[i] || f.Pos.Filename != w.file || f.Pos.Line != w.line {
				continue
			}
			if !w.re.MatchString(f.Message) {
				t.Errorf("%s:%d: finding %q does not match want %q", w.file, w.line, f.Message, w.re)
			}
			matched[i] = true
			hit = true
			break
		}
		if !hit {
			t.Errorf("%s:%d: want %q, got no finding", w.file, w.line, w.re)
		}
	}
	for i, f := range findings {
		if !matched[i] {
			t.Errorf("unexpected finding: %s", f)
		}
	}
}

func TestWalltimeFixture(t *testing.T)    { checkFixture(t, "walltime") }
func TestMapiterFixture(t *testing.T)     { checkFixture(t, "mapiter") }
func TestRawchanFixture(t *testing.T)     { checkFixture(t, "rawchan") }
func TestFloatcmpFixture(t *testing.T)    { checkFixture(t, "floatcmp") }
func TestSnapshotmutFixture(t *testing.T) { checkFixture(t, "snapshotmut") }
func TestGoroleakFixture(t *testing.T)    { checkFixture(t, "goroleak") }
func TestHotallocFixture(t *testing.T)    { checkFixture(t, "hotalloc") }

// TestFixturesFailClosed asserts each fixture yields at least one finding
// under the full suite with -allpkgs semantics — the property the CI gate
// relies on ("exits non-zero on each analyzer's testdata fixtures").
func TestFixturesFailClosed(t *testing.T) {
	for _, az := range Analyzers() {
		pkg := loadFixture(t, az.Name)
		if got := run([]*Package{pkg}, Analyzers(), true); len(got) == 0 {
			t.Errorf("fixture %s: expected findings, got none", az.Name)
		}
	}
}

// TestScoping asserts the runner honors each analyzer's path scope: the
// walltime fixture package lives under internal/checkinv/testdata, outside
// every rule that could fire on its contents, so a scoped run must stay
// silent.
func TestScoping(t *testing.T) {
	pkg := loadFixture(t, "walltime")
	if got := run([]*Package{pkg}, Analyzers(), false); len(got) != 0 {
		t.Errorf("scoped run over out-of-scope package produced findings: %v", got)
	}
}

// TestRuleScopes pins every rule's scope by the packages it must and must
// not reach.  rawchan guards the virtual clock only: the comm layer and the
// real-clock serving code are out of it, while goroleak still covers
// serving's goroutines.
func TestRuleScopes(t *testing.T) {
	for _, tc := range []struct {
		rule    string
		in, out []string
	}{
		{"walltime",
			[]string{"internal/core", "internal/cluster", "internal/obsv", "internal/experiments"},
			[]string{"internal/apriori", "internal/serve", "cmd/experiments"}},
		{"mapiter",
			[]string{"internal", "internal/apriori", "internal/distserve"},
			[]string{"cmd/parminer", ""}},
		{"rawchan",
			[]string{"internal/core", "internal/apriori", "internal/countengine", "internal/hashtree",
				"internal/partition", "internal/itemset", "internal/txstore", "internal/experiments"},
			[]string{"internal/cluster", "internal/serve", "internal/distserve", "internal/obsv",
				"cmd/experiments", "cmd/ruleserver", "cmd/parminer", "internal/corex"}},
		{"floatcmp",
			[]string{"internal/analysis", "internal/experiments"},
			[]string{"internal/core", "cmd/experiments"}},
		{"snapshotmut",
			[]string{"internal/serve", "cmd/ruleserver"},
			[]string{"scripts", ""}},
		{"goroleak",
			[]string{"internal/serve", "internal/distserve", "internal/obsv"},
			[]string{"internal/core", "cmd/ruleserver"}},
		{"hotalloc",
			[]string{"internal/hashtree", "cmd/parminer", "scripts", ""},
			nil},
	} {
		t.Run(tc.rule, func(t *testing.T) {
			az := analyzerByName(tc.rule)
			for _, rel := range tc.in {
				if !az.inScope(rel) {
					t.Errorf("%s does not reach %q; want it in scope", tc.rule, rel)
				}
			}
			for _, rel := range tc.out {
				if az.inScope(rel) {
					t.Errorf("%s reaches %q; want it out of scope", tc.rule, rel)
				}
			}
		})
	}
}

// TestAllowGrammar exercises the directive parser on both placements and
// the multi-rule form.
func TestAllowGrammar(t *testing.T) {
	fset := token.NewFileSet()
	src := `package p

func f() {
	_ = 1 //checkinv:allow walltime — end-of-line form
	//checkinv:allow mapiter,rawchan standalone, two rules
	_ = 2
	//checkinv:allowed not-our-directive
	_ = 3
}
`
	file := parseSrc(t, fset, "allow.go", src)
	allows := collectAllows(fset, file)
	for _, tc := range []struct {
		line int
		rule string
		want bool
	}{
		{4, "walltime", true},
		{4, "mapiter", false},
		{6, "mapiter", true},
		{6, "rawchan", true},
		{6, "floatcmp", false},
		{8, "walltime", false},
	} {
		if got := allows.allows("allow.go", tc.line, tc.rule) != nil; got != tc.want {
			t.Errorf("allows(line %d, %s) = %v, want %v", tc.line, tc.rule, got, tc.want)
		}
	}
}

// TestAllowAdjacency pins the v2 adjacency rules: the end-of-line form
// covers exactly its own line, and the standalone form covers the next
// line holding non-comment source — skipping blank lines and interposed
// comments (build tags), including inside composite literals.
func TestAllowAdjacency(t *testing.T) {
	fset := token.NewFileSet()
	src := `package p

var table = []int{
	1,
	//checkinv:allow walltime — above a spaced-out literal entry

	2,
	3,
}

func f() {
	//checkinv:allow mapiter — build-tag comment interposed
	//go:build ignore
	_ = 4
	_ = 5 //checkinv:allow rawchan — end-of-line form
	_ = 6
}
`
	file := parseSrc(t, fset, "adj.go", src)
	allows := collectAllows(fset, file)
	for _, tc := range []struct {
		line int
		rule string
		want bool
	}{
		{7, "walltime", true},  // standalone skips the blank line to the "2," entry
		{8, "walltime", false}, // …and covers only that first content line
		{4, "walltime", false}, // …and nothing above itself
		{14, "mapiter", true},  // standalone skips the build-tag comment
		{13, "mapiter", false}, // the build-tag line itself holds no content
		{15, "rawchan", true},  // end-of-line covers its own line
		{16, "rawchan", false}, // …and does not leak onto the next line
	} {
		if got := allows.allows("adj.go", tc.line, tc.rule) != nil; got != tc.want {
			t.Errorf("allows(line %d, %s) = %v, want %v", tc.line, tc.rule, got, tc.want)
		}
	}
}

// TestAllowSkipBounded asserts the standalone form gives up after
// maxAllowSkip lines, so a directive cannot silently suppress a distant
// statement.
func TestAllowSkipBounded(t *testing.T) {
	fset := token.NewFileSet()
	src := "package p\n\nfunc f() {\n\t//checkinv:allow walltime too far\n" +
		strings.Repeat("\n", maxAllowSkip+1) + "\t_ = 1\n}\n"
	file := parseSrc(t, fset, "far.go", src)
	allows := collectAllows(fset, file)
	if got := allows.allows("far.go", 4+maxAllowSkip+2, "walltime"); got != nil {
		t.Errorf("directive covered a line %d lines below; want the %d-line bound enforced", maxAllowSkip+2, maxAllowSkip)
	}
}

// TestLoaderIncludesTestFiles exercises the loader on the testload
// fixture: the in-package _test.go file joins the package's own
// type-check, the external (package foo_test) file becomes a second Package
// with the same Rel, and the walltime rule fires in both.
func TestLoaderIncludesTestFiles(t *testing.T) {
	root, modPath, err := ModuleRoot(".")
	if err != nil {
		t.Fatalf("ModuleRoot: %v", err)
	}
	dir := filepath.Join("testdata", "src", "testload")

	pkgs, err := NewLoader(root, modPath).LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("%d packages, want 2 (package + external tests)", len(pkgs))
	}
	prim, ext := pkgs[0], pkgs[1]
	if len(prim.Files) != 2 {
		t.Errorf("primary package has %d files, want 2 (source + in-package test)", len(prim.Files))
	}
	if len(ext.Files) != 1 || !strings.HasSuffix(ext.Path, "_test") {
		t.Errorf("external package = %d files, path %q", len(ext.Files), ext.Path)
	}
	if prim.Rel != ext.Rel {
		t.Errorf("Rel differs: %q vs %q", prim.Rel, ext.Rel)
	}
	for _, p := range pkgs {
		if len(p.TypeErrors) > 0 {
			t.Errorf("%s: type errors: %v", p.Path, p.TypeErrors)
		}
	}

	findings := run(pkgs, []*Analyzer{WalltimeAnalyzer}, true)
	byFile := map[string]int{}
	for _, f := range findings {
		byFile[filepath.Base(f.Pos.Filename)]++
	}
	if byFile["testload_test.go"] != 1 || byFile["external_test.go"] != 1 || len(findings) != 2 {
		t.Errorf("walltime findings = %v, want one in each test file", findings)
	}
}

// TestFindingString pins the output format the driver and CI grep for.
func TestFindingString(t *testing.T) {
	f := Finding{
		Pos:     token.Position{Filename: "internal/core/core.go", Line: 210},
		Rule:    "walltime",
		Message: "time.Now reads the wall clock",
	}
	want := "internal/core/core.go:210: [walltime] time.Now reads the wall clock"
	if f.String() != want {
		t.Errorf("Finding.String() = %q, want %q", f.String(), want)
	}
}

// TestCleanTree runs the driver over the whole module and asserts the
// merge invariant: under the scoped suite no package has a finding, and
// none has a type error, so no finding can be hiding behind one.
func TestCleanTree(t *testing.T) {
	root, modPath, err := ModuleRoot(".")
	if err != nil {
		t.Fatalf("ModuleRoot: %v", err)
	}
	res, err := RunTree(RunOptions{Dir: root})
	if err != nil {
		t.Fatalf("RunTree: %v", err)
	}
	dirs, err := patternDirs(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		srcNames, testNames, err := goFileNames(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(srcNames)+len(testNames) == 0 {
			continue
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.ToSlash(filepath.Join(modPath, rel))
		t.Run(path, func(t *testing.T) {
			for _, p := range res.Stats.TypeErrorPkgs {
				if name, _, _ := strings.Cut(p, " "); name == path || name == path+"_test" {
					t.Errorf("type errors: %s", p)
				}
			}
			for _, f := range res.Findings {
				if filepath.Dir(f.Pos.Filename) == dir {
					t.Errorf("finding under the scoped suite: %s", f)
				}
			}
		})
	}
}
