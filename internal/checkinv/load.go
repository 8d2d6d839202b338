package checkinv

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one parsed and type-checked package under analysis.
type Package struct {
	// Rel is the module-relative directory ("internal/core", "" for the
	// module root); analyzer scopes are expressed against it.
	Rel string
	// Path is the import path used for type-checking.
	Path string
	// Dir is the absolute directory.
	Dir string

	Fset  *token.FileSet
	Files []*ast.File
	Info  *types.Info
	// TypeErrors holds any type-checking diagnostics.  Analysis proceeds on
	// a best-effort basis with partial type information.
	TypeErrors []error
}

// ModuleRoot walks upward from dir to the enclosing go.mod and returns its
// directory and module path.
func ModuleRoot(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("checkinv: %s/go.mod has no module line", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("checkinv: no go.mod above %s", abs)
		}
	}
}

// Loader parses and type-checks packages with a shared FileSet and a shared
// (caching) source importer, so common dependencies are checked once per
// process.  Parsing fans out across goroutines; type-checking runs
// sequentially because the shared importer keeps one dependency graph.
//
// _test.go files are always loaded: in-package test files join the
// package's own type-check, and an external test package (package
// foo_test) comes back as its own Package with the same Rel, so path-scoped
// rules apply to it like any file in the directory.
type Loader struct {
	Fset     *token.FileSet
	importer types.Importer
}

// NewLoader returns a loader backed by the stdlib source importer, which
// resolves both standard-library and module-internal imports from source —
// no external dependencies.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{Fset: fset, importer: importer.ForCompiler(fset, "source", nil)}
}

// Dirs resolves the patterns ("./...", "dir/...", plain directories)
// relative to dir and returns the matched directories in deterministic
// order.  testdata, vendor and dot/underscore directories are skipped by
// the recursive forms.
func (l *Loader) Dirs(dir string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	addDir := func(d string) {
		d = filepath.Clean(d)
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		base, recursive := pat, false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			base, recursive = rest, true
			if base == "" || base == "." {
				base = "."
			}
		}
		abs := base
		if !filepath.IsAbs(abs) {
			abs = filepath.Join(dir, base)
		}
		if !recursive {
			addDir(abs)
			continue
		}
		err := filepath.WalkDir(abs, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != abs && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			addDir(p)
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("checkinv: walking %s: %w", pat, err)
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// Load resolves the patterns relative to dir and returns the matched
// packages in deterministic order.
func (l *Loader) Load(dir string, patterns []string) ([]*Package, error) {
	root, modPath, err := ModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	dirs, err := l.Dirs(dir, patterns)
	if err != nil {
		return nil, err
	}
	return l.LoadDirs(dirs, root, modPath)
}

// parsedDir is one directory's parsed-but-unchecked contents.
type parsedDir struct {
	rel, path, abs string
	files          []*ast.File // package sources plus in-package test files
	extFiles       []*ast.File // external test package (package foo_test)
}

// LoadDirs parses every directory concurrently, then type-checks them in
// input order against the shared importer.
func (l *Loader) LoadDirs(dirs []string, modRoot, modPath string) ([]*Package, error) {
	parsed := make([]*parsedDir, len(dirs))
	errs := make([]error, len(dirs))
	var wg sync.WaitGroup
	for i, d := range dirs {
		i, d := i, d
		wg.Add(1)
		go func() {
			defer wg.Done()
			parsed[i], errs[i] = l.parseDir(d, modRoot, modPath)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	var pkgs []*Package
	for _, pd := range parsed {
		if pd == nil {
			continue
		}
		if len(pd.files) > 0 {
			pkgs = append(pkgs, l.check(pd.rel, pd.path, pd.abs, pd.files))
		}
		if len(pd.extFiles) > 0 {
			pkgs = append(pkgs, l.check(pd.rel, pd.path+"_test", pd.abs, pd.extFiles))
		}
	}
	return pkgs, nil
}

// LoadDir parses and type-checks the package in dir: the package with its
// in-package _test.go files, then the external test package (package
// foo_test) when one exists.
func (l *Loader) LoadDir(dir, modRoot, modPath string) ([]*Package, error) {
	return l.LoadDirs([]string{dir}, modRoot, modPath)
}

// goFileNames returns the directory's Go file names split into sources and
// test files, each sorted.
func goFileNames(dir string) (srcNames, testNames []string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("checkinv: %w", err)
	}
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") {
			continue
		}
		if strings.HasSuffix(n, "_test.go") {
			testNames = append(testNames, n)
			continue
		}
		srcNames = append(srcNames, n)
	}
	sort.Strings(srcNames)
	sort.Strings(testNames)
	return srcNames, testNames, nil
}

// parseDir parses one directory's files; nil when it holds no Go files.
func (l *Loader) parseDir(dir, modRoot, modPath string) (*parsedDir, error) {
	srcNames, testNames, err := goFileNames(dir)
	if err != nil {
		return nil, err
	}
	if len(srcNames) == 0 && len(testNames) == 0 {
		return nil, nil
	}

	parse := func(names []string) ([]*ast.File, error) {
		var files []*ast.File
		for _, n := range names {
			f, err := parser.ParseFile(l.Fset, filepath.Join(dir, n), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("checkinv: %w", err)
			}
			files = append(files, f)
		}
		return files, nil
	}
	files, err := parse(srcNames)
	if err != nil {
		return nil, err
	}
	testFiles, err := parse(testNames)
	if err != nil {
		return nil, err
	}

	// Split the test files between the package under test and the external
	// test package by their package clause.
	var extFiles []*ast.File
	for _, f := range testFiles {
		if strings.HasSuffix(f.Name.Name, "_test") {
			extFiles = append(extFiles, f)
		} else {
			files = append(files, f)
		}
	}

	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(modRoot, abs)
	if err != nil {
		return nil, err
	}
	rel = filepath.ToSlash(rel)
	if rel == "." {
		rel = ""
	}
	path := modPath
	if rel != "" {
		path = modPath + "/" + rel
	}
	return &parsedDir{rel: rel, path: path, abs: abs, files: files, extFiles: extFiles}, nil
}

// check type-checks one file set as a package, proceeding on best-effort
// partial information when diagnostics occur.
func (l *Loader) check(rel, path, dir string, files []*ast.File) *Package {
	pkg := &Package{Rel: rel, Path: path, Dir: dir, Fset: l.Fset, Files: files}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer: l.importer,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// The returned error repeats TypeErrors; partial info is still usable.
	_, _ = conf.Check(path, l.Fset, files, info)
	pkg.Info = info
	return pkg
}
