package parapriori

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testHooks are the exported internal names that only tests call, each kept
// on purpose (DESIGN.md "Test hooks").  Keys are "pkg.Func" or
// "pkg.Recv.Method" with pkg the path below internal/.
var testHooks = map[string]string{
	"apriori.MineNaive":              "the brute-force oracle every miner is checked against",
	"apriori.CountCandidatesNaive":   "the brute-force oracle every counting engine is checked against",
	"distserve.LocalClient.SetDown":  "kills an in-process node for the fleet's failover tests",
	"distserve.LocalClient.SetDelay": "slows an in-process node for the fleet's hedging tests",
	"distserve.Router.ProbeOnce":     "drives the failure detector's recovery deterministically",
	"obsv.LintProm":                  "the Prometheus exposition lint every /metrics test runs",
	"checkinv.Loader.LoadDir":        "loads each rule's testdata package for the analyzer tests",
	"hashtree.Tree.Leaves":           "the shape reference for the pair-indexed tree's differential tests",
	"obsv.Flight.Dropped":            "the flight ring's drop counter, read by its tests",
	"core.OnCarry":                   "tells the carry tests which passes count from the carried bitset index",

	// Section IV's model, checked by its tests against brute-force
	// expectation and the hash tree's measured counters.
	"analysis.V":          "Equations 1-2, expected leaves visited",
	"analysis.Choose":     "C(I, k), potential candidates per transaction",
	"analysis.Workload.C": "C(I, k) for the workload, potential candidates per transaction",
	"analysis.Workload.L": "L = M/S, leaves of the serial tree",
	"analysis.Serial":     "Equation 3, serial runtime",
	"analysis.BestG":      "the G that minimises Equation 7",
	"analysis.Efficiency": "Section IV's efficiency E",
	"analysis.Speedup":    "Section IV's speedup",
}

// stdMethods are method names a standard-library interface calls; a type
// implements them for fmt, errors, net/http, sort, io, encoding/json or
// go/types' Importer, so no selector in this module need name them.
var stdMethods = map[string]bool{
	"Error": true, "String": true, "Unwrap": true, "Is": true, "As": true,
	"ServeHTTP": true, "Len": true, "Less": true, "Swap": true,
	"Read": true, "Write": true, "Close": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "Import": true,
}

// goFile is one parsed non-test source file.
type goFile struct {
	path string // slash path relative to the repository root
	pkg  string // import path of its package
	ast  *ast.File
}

// TestExportedNamesHaveCallers holds every exported function and method of
// internal/ to having a caller outside its own file in non-test code
// (DESIGN.md "Knobs"): a package-level F of package p needs a p.F selector
// in another package or an F in another file of p; a method M needs a .M
// selector in another file.  A name its own file alone calls should be
// unexported; one only tests call should go, unless it is a listed test
// hook, which fails once another file calls .M().  Methods are matched by
// selector name alone, so one that shares its name with a neighbour's
// method or field is never flagged.  The root package is out of scope:
// testdata/api.golden governs it.
func TestExportedNamesHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	var files []goFile
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		pkg := "parapriori"
		if dir != "." {
			pkg += "/" + dir
		}
		files = append(files, goFile{filepath.ToSlash(path), pkg, f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Every reference, keyed by what it can satisfy: "pkg.F" for a
	// qualified or same-package name, ".M" for any selector and ".M()" for
	// a selector that is called.  The value is the set of files it appears
	// in.
	refs := make(map[string]map[string]bool)
	add := func(key, file string) {
		if refs[key] == nil {
			refs[key] = make(map[string]bool)
		}
		refs[key][file] = true
	}
	for _, f := range files {
		imports := make(map[string]string) // local name → import path
		for _, im := range f.ast.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			local := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = p
		}
		var walk func(n ast.Node) bool
		walk = func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				// A declaration's own name is not a use of it.
				if x.Recv != nil {
					ast.Inspect(x.Recv, walk)
				}
				ast.Inspect(x.Type, walk)
				if x.Body != nil {
					ast.Inspect(x.Body, walk)
				}
				return false
			case *ast.CallExpr:
				if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
					add("."+sel.Sel.Name+"()", f.path)
				}
			case *ast.SelectorExpr:
				add("."+x.Sel.Name, f.path)
				if id, ok := x.X.(*ast.Ident); ok {
					if p, ok := imports[id.Name]; ok {
						add(p+"."+x.Sel.Name, f.path)
						return false
					}
				}
				ast.Inspect(x.X, walk)
				return false
			case *ast.Ident:
				add(f.pkg+"."+x.Name, f.path)
			}
			return true
		}
		ast.Inspect(f.ast, walk)
	}
	calledElsewhere := func(key, file string) bool {
		for g := range refs[key] {
			if g != file {
				return true
			}
		}
		return false
	}

	byPkg := make(map[string][]string) // internal package → its uncalled names
	seen := make(map[string]bool)      // declared hook keys
	for _, f := range files {
		rel, ok := strings.CutPrefix(f.pkg, "parapriori/internal/")
		if !ok {
			continue
		}
		if _, ok := byPkg[rel]; !ok {
			byPkg[rel] = nil
		}
		for _, decl := range f.ast.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			name, ref := rel+"."+fd.Name.Name, f.pkg+"."+fd.Name.Name
			if fd.Recv != nil {
				if stdMethods[fd.Name.Name] {
					continue
				}
				name, ref = rel+"."+receiverTypeName(fd.Recv)+"."+fd.Name.Name, "."+fd.Name.Name
			}
			_, hook := testHooks[name]
			called := calledElsewhere(ref, f.path)
			if hook && fd.Recv != nil {
				// A hook gains a caller only through a call: a field of
				// the same name (a timer's C) is not one.
				called = calledElsewhere(ref+"()", f.path)
			}
			switch {
			case hook:
				seen[name] = true
				if called {
					byPkg[rel] = append(byPkg[rel], fmt.Sprintf("%s (%s) has a caller now: drop it from testHooks", name, fset.Position(fd.Pos())))
				}
			case !called:
				byPkg[rel] = append(byPkg[rel], fmt.Sprintf("%s (%s) has no caller outside its own file: unexport it, delete it with its tests, or list it in testHooks", name, fset.Position(fd.Pos())))
			}
		}
	}

	pkgs := make([]string, 0, len(byPkg))
	for p := range byPkg {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)
	for _, p := range pkgs {
		t.Run(p, func(t *testing.T) {
			for _, s := range byPkg[p] {
				t.Error(s)
			}
		})
	}
	for name := range testHooks {
		if !seen[name] {
			t.Errorf("testHooks lists %s, which is not an exported function or method of internal/", name)
		}
	}
}
