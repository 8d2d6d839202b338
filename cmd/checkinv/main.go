// Command checkinv enforces the project's simulation invariants (walltime,
// mapiter, rawchan, floatcmp, snapshotmut, goroleak, hotalloc) over the
// given packages.  It is zero-dependency — stdlib go/parser + go/ast +
// go/types only — and is wired into CI ahead of the test suite.
//
// Usage:
//
//	go run ./cmd/checkinv ./...
//	go run ./cmd/checkinv -json internal/core
//	go run ./cmd/checkinv -allpkgs internal/checkinv/testdata/src/walltime
//	go run ./cmd/checkinv -debt ./...
//	go run ./cmd/checkinv -list
//
// Findings print as "file:line: [rule] message"; the exit status is 1 when
// any finding survives, 2 on a loading error, 0 on a clean tree.  Rules are
// path-scoped (-list prints each scope; see DESIGN.md, "Correctness
// tooling"); -allpkgs applies every rule to every matched package
// regardless of scope, which is how the fixture directories are exercised.
// _test.go files are analyzed too: a wall-clock read or a map-order
// dependence in a test is the same determinism bug in disguise.
// Intentional sites are annotated in the source with
// //checkinv:allow <rule> [reason]; -debt reports every annotation in the
// tree with its rules, age and reason, flagging each rule that suppressed
// nothing as stale.
//
// Module packages are type-checked from source and the standard library is
// read from the export data go list reports; a go.mod go cannot parse is a
// loading error.  -timings prints how many directories and packages were
// matched and where the time went.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"parapriori/internal/checkinv"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole driver, factored for the e2e tests: args excludes the
// program name; the return value is the process exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("checkinv", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonOut = fs.Bool("json", false, "emit findings (or -debt entries) as a JSON array")
		allPkgs = fs.Bool("allpkgs", false, "apply rules to every package, ignoring path scopes")
		list    = fs.Bool("list", false, "list the available rules with their scopes and exit")
		debt    = fs.Bool("debt", false, "report every allow annotation (rules, used/stale, age, reason) instead of findings")
		timings = fs.Bool("timings", false, "print phase timings to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, az := range checkinv.Analyzers() {
			scope := "every package"
			if az.Scope != nil {
				scope = strings.Join(az.Scope, " ")
			}
			fmt.Fprintf(stdout, "%-12s %s\n%-12s scope: %s\n", az.Name, az.Doc, "", scope)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		return fatal(stderr, err)
	}

	res, err := checkinv.RunTree(checkinv.RunOptions{
		Dir:      cwd,
		Patterns: patterns,
		AllPkgs:  *allPkgs,
	})
	if err != nil {
		return fatal(stderr, err)
	}
	if res.Stats.Packages == 0 {
		fmt.Fprintln(stderr, "checkinv: no packages matched")
		return 2
	}
	for _, p := range res.Stats.TypeErrorPkgs {
		// Analysis proceeds on partial type info, but a package that does
		// not type-check can hide findings — say so rather than silently
		// reporting a clean bill.
		fmt.Fprintf(stderr, "checkinv: warning: %s, findings may be incomplete\n", p)
	}
	if *timings {
		s := res.Stats
		fmt.Fprintf(stderr, "checkinv: %d dir(s), %d package(s); load %v, analyze %v\n",
			s.Dirs, s.Packages, s.LoadDuration.Round(1e6), s.AnalyzeDuration.Round(1e6))
	}

	if *debt {
		root, _, err := checkinv.ModuleRoot(cwd)
		if err != nil {
			return fatal(stderr, err)
		}
		entries := checkinv.DebtEntries(res.Allows, root)
		if *jsonOut {
			return emitJSON(stdout, stderr, entries)
		}
		checkinv.WriteDebt(stdout, entries)
		return 0
	}

	if *jsonOut {
		type finding struct {
			File    string `json:"file"`
			Line    int    `json:"line"`
			Column  int    `json:"column"`
			Rule    string `json:"rule"`
			Message string `json:"message"`
		}
		out := make([]finding, 0, len(res.Findings))
		for _, f := range res.Findings {
			out = append(out, finding{
				File: relPath(cwd, f.Pos.Filename), Line: f.Pos.Line, Column: f.Pos.Column,
				Rule: f.Rule, Message: f.Message,
			})
		}
		if code := emitJSON(stdout, stderr, out); code != 0 {
			return code
		}
	} else {
		for _, f := range res.Findings {
			fmt.Fprintf(stdout, "%s:%d: [%s] %s\n", relPath(cwd, f.Pos.Filename), f.Pos.Line, f.Rule, f.Message)
		}
	}
	if len(res.Findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "checkinv: %d finding(s)\n", len(res.Findings))
		}
		return 1
	}
	return 0
}

// emitJSON writes v as indented JSON; 0 on success.
func emitJSON(stdout, stderr io.Writer, v any) int {
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fmt.Fprintf(stderr, "checkinv: %v\n", err)
		return 2
	}
	return 0
}

// fatal prints the error once under the checkinv: prefix (library errors
// already carry it) and returns the loader status.
func fatal(stderr io.Writer, err error) int {
	msg := err.Error()
	if !strings.HasPrefix(msg, "checkinv:") {
		msg = "checkinv: " + msg
	}
	fmt.Fprintln(stderr, msg)
	return 2
}

// relPath shortens absolute file names to cwd-relative ones for readable,
// clickable output.
func relPath(base, path string) string {
	if rel, err := filepath.Rel(base, path); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return path
}
