package checkinv

import (
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
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

// Loader parses and type-checks the packages of one module, and is the
// type-checker's importer while it does.  An import path under the module
// path is type-checked once, from that package's non-test files, the first
// time something imports it; every other path comes from the compiled
// export data that one `go list -export` run locates.  Parsing fans out
// across goroutines; type-checking runs sequentially because the imports
// form one dependency graph.
//
// _test.go files are always loaded: in-package test files join the
// package's own type-check, and an external test package (package
// foo_test) comes back as its own Package with the same Rel, so path-scoped
// rules apply to it like any file in the directory.  An external test
// package imports the package under test like any importer does, from its
// non-test files, so helpers in export_test.go stay invisible to it.
type Loader struct {
	fset          *token.FileSet
	root, modPath string

	gc      types.Importer
	exports map[string]string      // non-module import path → export data file
	srcs    map[string][]*ast.File // module import path → its non-test files
	checked map[string]*imported   // module import path → result; nil while checking
}

// imported is one module package as its importers see it.
type imported struct {
	pkg *types.Package
	err error
}

// NewLoader returns a loader for the module at root with module path
// modPath.
func NewLoader(root, modPath string) *Loader {
	l := &Loader{
		fset:    token.NewFileSet(),
		root:    root,
		modPath: modPath,
		exports: map[string]string{},
		srcs:    map[string][]*ast.File{},
		checked: map[string]*imported{},
	}
	l.gc = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		file := l.exports[path]
		if file == "" {
			return nil, fmt.Errorf("go list found no export data for %q", path)
		}
		return os.Open(file)
	})
	return l
}

// Import makes the loader a types.Importer: a module path is type-checked
// from source on first use, any other comes from its export data.
func (l *Loader) Import(path string) (*types.Package, error) {
	if !l.inModule(path) {
		return l.gc.Import(path)
	}
	if imp, ok := l.checked[path]; ok {
		if imp == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return imp.pkg, imp.err
	}
	files := l.srcs[path]
	if len(files) == 0 {
		return nil, fmt.Errorf("no non-test Go files in %s", l.dirOf(path))
	}
	l.checked[path] = nil
	// Importers see only declarations, and only a hard error breaks the
	// import, as with go/importer's source importer: an unused import in
	// a dependency is reported where that package itself is analyzed.
	var hard error
	conf := types.Config{Importer: l, IgnoreFuncBodies: true, Error: func(err error) {
		if te, ok := err.(types.Error); hard == nil && !(ok && te.Soft) {
			hard = fmt.Errorf("type-checking %s: %w", path, err)
		}
	}}
	pkg, _ := conf.Check(path, l.fset, files, nil)
	l.checked[path] = &imported{pkg, hard}
	return pkg, hard
}

// inModule reports whether the import path names a package of the module.
func (l *Loader) inModule(path string) bool {
	return path == l.modPath || strings.HasPrefix(path, l.modPath+"/")
}

// dirOf returns the directory of a module import path.
func (l *Loader) dirOf(path string) string {
	return filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")))
}

// patternDirs resolves the patterns ("./...", "dir/...", plain directories)
// relative to dir and returns the matched directories in deterministic
// order.  testdata, vendor and dot/underscore directories are skipped by
// the recursive forms.
func patternDirs(dir string, patterns []string) ([]string, error) {
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

// parsedDir is one directory's parsed-but-unchecked contents.
type parsedDir struct {
	rel, path, abs string
	src            []*ast.File // package sources
	inTests        []*ast.File // in-package test files
	extFiles       []*ast.File // external test package (package foo_test)
}

// LoadDirs parses every directory concurrently, resolves the imports of
// what it parsed, then type-checks the directories in input order.
func (l *Loader) LoadDirs(dirs []string) ([]*Package, error) {
	parsed := make([]*parsedDir, len(dirs))
	err := parallel(len(dirs), func(i int) (err error) {
		parsed[i], err = l.parseDir(dirs[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, pd := range parsed {
		if pd != nil {
			l.srcs[pd.path] = pd.src
			files = append(append(append(files, pd.src...), pd.inTests...), pd.extFiles...)
		}
	}
	if err := l.resolveImports(files); err != nil {
		return nil, err
	}

	var pkgs []*Package
	for _, pd := range parsed {
		if pd == nil {
			continue
		}
		if files := append(pd.src[:len(pd.src):len(pd.src)], pd.inTests...); len(files) > 0 {
			pkgs = append(pkgs, l.check(pd.rel, pd.path, pd.abs, files))
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
func (l *Loader) LoadDir(dir string) ([]*Package, error) {
	return l.LoadDirs([]string{dir})
}

// resolveImports follows the module imports of files to their closure,
// parsing each dependency not loaded yet from its non-test files, then asks
// go list, once, for the export data of every other import.  go list runs
// with -e, so an import it cannot resolve stays a type error of its
// importer; a go list that fails outright (an unparsable go.mod) is a load
// error.
func (l *Loader) resolveImports(files []*ast.File) error {
	external := map[string]bool{}
	for len(files) > 0 {
		var deps []string
		for _, f := range files {
			for _, spec := range f.Imports {
				path, _ := strconv.Unquote(spec.Path.Value)
				if !l.inModule(path) {
					external[path] = true
				} else if _, ok := l.srcs[path]; !ok {
					l.srcs[path] = nil
					deps = append(deps, path)
				}
			}
		}
		parsed := make([][]*ast.File, len(deps))
		err := parallel(len(deps), func(i int) error {
			names, _, err := goFileNames(l.dirOf(deps[i]))
			if errors.Is(err, fs.ErrNotExist) {
				return nil // no such package: a type error of its importer
			}
			if err != nil {
				return err
			}
			parsed[i], err = l.parseFiles(l.dirOf(deps[i]), names)
			return err
		})
		if err != nil {
			return err
		}
		files = nil
		for i, path := range deps {
			l.srcs[path] = parsed[i]
			files = append(files, parsed[i]...)
		}
	}

	var paths []string
	for path := range external {
		if _, done := l.exports[path]; !done {
			paths = append(paths, path)
		}
	}
	if len(paths) == 0 {
		return nil
	}
	sort.Strings(paths)
	cmd := exec.Command(filepath.Join(build.Default.GOROOT, "bin", "go"),
		append([]string{"list", "-e", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}, paths...)...)
	cmd.Dir = l.root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("checkinv: go list: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, "\t"); ok {
			l.exports[path] = file
		}
	}
	return nil
}

// parallel runs f(0), …, f(n-1) concurrently and returns the first error
// in index order.
func parallel(n int, f func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = f(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
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
func (l *Loader) parseDir(dir string) (*parsedDir, error) {
	srcNames, testNames, err := goFileNames(dir)
	if err != nil {
		return nil, err
	}
	if len(srcNames) == 0 && len(testNames) == 0 {
		return nil, nil
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.root, abs)
	if err != nil {
		return nil, err
	}
	rel = filepath.ToSlash(rel)
	if rel == "." {
		rel = ""
	}
	pd := &parsedDir{rel: rel, path: l.modPath, abs: abs}
	if rel != "" {
		pd.path = l.modPath + "/" + rel
	}
	if pd.src, err = l.parseFiles(dir, srcNames); err != nil {
		return nil, err
	}
	testFiles, err := l.parseFiles(dir, testNames)
	if err != nil {
		return nil, err
	}
	// Split the test files between the package under test and the external
	// test package by their package clause.
	for _, f := range testFiles {
		if strings.HasSuffix(f.Name.Name, "_test") {
			pd.extFiles = append(pd.extFiles, f)
		} else {
			pd.inTests = append(pd.inTests, f)
		}
	}
	return pd, nil
}

// parseFiles parses the named files of one directory.
func (l *Loader) parseFiles(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("checkinv: %w", err)
		}
		files = append(files, f)
	}
	return files, nil
}

// check type-checks one file set as a package, proceeding on best-effort
// partial information when diagnostics occur.
func (l *Loader) check(rel, path, dir string, files []*ast.File) *Package {
	pkg := &Package{Rel: rel, Path: path, Dir: dir, Fset: l.fset, Files: files}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// The returned error repeats TypeErrors; partial info is still usable.
	_, _ = conf.Check(path, l.fset, files, info)
	pkg.Info = info
	return pkg
}
