package checkinv

import (
	"go/ast"
	"go/token"
	"go/types"
)

// RawchanAnalyzer forbids raw channel machinery in the packages whose code
// runs inside a processor program on the virtual clock: internal/core and
// the mining kernels it drives (apriori, countengine, hashtree, partition,
// itemset, txstore), plus internal/experiments, whose drivers only price
// the miner.  There, all inter-processor traffic must flow through
// cluster.Proc.Send/Recv and the cluster.Comm collectives so it is charged
// to the virtual clocks; a bare channel (or goroutine) is traffic the cost
// model never sees, which silently deflates the communication figures the
// paper's evaluation is about.  Package cluster itself is exempt — it is
// the comm layer.  The serving packages and commands run on the real OS
// clock, where a raw channel is the right tool; they are out of scope, and
// goroleak still keeps their goroutines joined.
var RawchanAnalyzer = &Analyzer{
	Name: "rawchan",
	Doc:  "forbid raw channels/goroutines in the virtual-clock packages (core and its mining kernels)",
	Scope: []string{"internal/core", "internal/apriori", "internal/countengine", "internal/hashtree",
		"internal/partition", "internal/itemset", "internal/txstore", "internal/experiments"},
	Check: checkRawchan,
}

func checkRawchan(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if p.isBuiltin(n, "make") && len(n.Args) > 0 {
					if _, ok := n.Args[0].(*ast.ChanType); ok {
						p.Reportf(n.Pos(), "make(chan ...) bypasses the cluster comm layer; use Proc.Send/Recv or a Comm collective")
					}
				}
				if p.isBuiltin(n, "close") {
					p.Reportf(n.Pos(), "close on a raw channel bypasses the cluster comm layer")
				}
			case *ast.SendStmt:
				p.Reportf(n.Pos(), "raw channel send bypasses the cluster comm layer; use Proc.Send")
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					p.Reportf(n.Pos(), "raw channel receive bypasses the cluster comm layer; use Proc.Recv")
				}
			case *ast.SelectStmt:
				p.Reportf(n.Pos(), "select on raw channels bypasses the cluster comm layer")
			case *ast.GoStmt:
				p.Reportf(n.Pos(), "raw goroutine escapes the SPMD model; processor programs run under cluster.Run")
			case *ast.RangeStmt:
				if t := p.TypeOf(n.X); t != nil {
					if _, ok := t.Underlying().(*types.Chan); ok {
						p.Reportf(n.Pos(), "range over a raw channel bypasses the cluster comm layer; use Proc.Recv")
					}
				}
			}
			return true
		})
	}
}
