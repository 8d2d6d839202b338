package checkinv

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatcmpAnalyzer flags == and != between floating-point operands in the
// performance-model and experiments packages, where predicted and measured
// times differ by rounding and an exact comparison is almost always a bug
// (the intended check is a tolerance).  Comparisons where both operands are
// compile-time constants are exact by construction and stay quiet.
var FloatcmpAnalyzer = &Analyzer{
	Name:  "floatcmp",
	Doc:   "flag ==/!= on floating-point operands in analysis/experiments",
	Scope: []string{"internal/analysis", "internal/experiments"},
	Check: checkFloatcmp,
}

func checkFloatcmp(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			if !isFloat(p.TypeOf(be.X)) && !isFloat(p.TypeOf(be.Y)) {
				return true
			}
			if isConst(p, be.X) && isConst(p, be.Y) {
				return true
			}
			p.Reportf(be.OpPos, "%s on floating-point operands; compare with a tolerance or annotate the exact check", be.Op)
			return true
		})
	}
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func isConst(p *Pass, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	return ok && tv.Value != nil
}
