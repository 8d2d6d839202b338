package checkinv

import "go/ast"

// wallFuncs are the package-time functions that read or wait on the wall
// clock.  Pure conversions and constructors (time.Duration, time.Unix,
// time.Date, time.Parse) are fine: they do not observe real time.
var wallFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// WalltimeAnalyzer forbids wall-clock reads in the simulation packages.
// The emulation's only notion of time is the virtual clock advanced by
// Proc.Compute/ReadIO/Send/Recv; a time.Now slipping into a figure makes
// the result depend on the host machine and the scheduler.
var WalltimeAnalyzer = &Analyzer{
	Name:  "walltime",
	Doc:   "forbid time.Now/Since/Sleep (and friends) in simulation packages",
	Scope: []string{"internal/cluster", "internal/core", "internal/obsv", "internal/analysis", "internal/experiments"},
	Check: checkWalltime,
}

func checkWalltime(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			if p.pkgNameOf(id) == "time" && wallFuncs[sel.Sel.Name] {
				p.Reportf(sel.Pos(), "time.%s reads the wall clock; simulation code must use the virtual clock (cluster.Proc)", sel.Sel.Name)
			}
			return true
		})
	}
}
