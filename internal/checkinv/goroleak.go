package checkinv

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoroleakAnalyzer enforces goroutine lifecycle in the real-OS serving
// packages: every `go` statement in internal/serve, internal/distserve and
// internal/obsv must have a visible join, so fan-out workers cannot outlive
// the snapshot swap (or test) that spawned them.  A goroutine counts as
// joined when:
//
//   - its body calls Done on a sync.WaitGroup — the WaitGroup/errgroup
//     counter idiom, whether the group is a local variable joined by Wait in
//     the same function or a struct field joined by a Close/Wait method; or
//   - its body sends on (or closes) a channel that the spawning function
//     also receives from — the done-channel idiom.
//
// Anything else — including `go someFunc()` whose join, if any, is not
// visible at the spawn site — is flagged and needs a //checkinv:allow
// goroleak annotation explaining who reaps the goroutine.
var GoroleakAnalyzer = &Analyzer{
	Name:  "goroleak",
	Doc:   "flag unjoined goroutines in internal/serve, internal/distserve and internal/obsv",
	Scope: []string{"internal/serve", "internal/distserve", "internal/obsv"},
	Check: checkGoroleak,
}

func checkGoroleak(p *Pass) {
	for _, f := range p.Files {
		enclosing := enclosingFuncs(f, func(n ast.Node) bool {
			_, ok := n.(*ast.GoStmt)
			return ok
		})
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			lit, isLit := g.Call.Fun.(*ast.FuncLit)
			if !isLit {
				p.Reportf(g.Pos(), "goroutine calls a named function; its join is not visible at the spawn site — use a joined func literal or annotate")
				return true
			}
			if p.waitGroupDone(lit.Body) {
				return true
			}
			if fn, ok := enclosing[g]; ok && p.doneChannel(lit.Body, fn) {
				return true
			}
			p.Reportf(g.Pos(), "goroutine has no visible join (WaitGroup.Done or done-channel); workers must not outlive a snapshot swap — join it or annotate")
			return true
		})
	}
}

// waitGroupDone reports whether the goroutine body calls Done on a
// sync.WaitGroup (local, captured, or stored in a struct).
func (p *Pass) waitGroupDone(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Done" {
			return true
		}
		if isWaitGroup(p.TypeOf(sel.X)) {
			found = true
		}
		return !found
	})
	return found
}

func isWaitGroup(t types.Type) bool {
	if t == nil {
		return false
	}
	for {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "WaitGroup"
}

// doneChannel reports whether the goroutine body signals completion on a
// channel object that the spawning function receives from: a send or close
// in the body paired with a receive (or range) on the same channel variable
// in the enclosing function.
func (p *Pass) doneChannel(body *ast.BlockStmt, fn funcNode) bool {
	signaled := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			if obj := p.chanObj(n.Chan); obj != nil {
				signaled[obj] = true
			}
		case *ast.CallExpr:
			if p.isBuiltin(n, "close") && len(n.Args) == 1 {
				if obj := p.chanObj(n.Args[0]); obj != nil {
					signaled[obj] = true
				}
			}
		}
		return true
	})
	if len(signaled) == 0 {
		return false
	}
	joined := false
	ast.Inspect(fn.body(), func(n ast.Node) bool {
		if joined {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				if obj := p.chanObj(n.X); obj != nil && signaled[obj] {
					joined = true
				}
			}
		case *ast.RangeStmt:
			if obj := p.chanObj(n.X); obj != nil && signaled[obj] {
				joined = true
			}
		}
		return !joined
	})
	return joined
}

// chanObj resolves a channel-typed expression to its variable object, or
// nil for anything but a plain identifier of channel type.
func (p *Pass) chanObj(e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	t := p.TypeOf(id)
	if t == nil {
		return nil
	}
	if _, ok := t.Underlying().(*types.Chan); !ok {
		return nil
	}
	return p.Info.Uses[id]
}
