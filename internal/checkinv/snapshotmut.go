package checkinv

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SnapshotmutAnalyzer enforces the serving tier's hot-swap contract: a type
// published through atomic.Pointer[T].Store/Swap/CompareAndSwap is frozen
// the moment it is published.  Readers in internal/serve and
// internal/distserve load snapshots lock-free, so any field, slice-element
// or map write that reaches a published value is a data race the race
// detector only catches when the schedule cooperates — this rule catches it
// statically, RacerD-style, by classifying where the written value came
// from:
//
//   - values freshly built in the writing function (&T{...}, T{...},
//     new(T), or a local var of value type T) are still private — quiet;
//   - functions whose results include *T or T are constructors — quiet;
//   - everything else (parameters, struct fields, and above all the result
//     of an atomic.Pointer Load) is potentially published — flagged.
//
// Intentional mutations (e.g. a field with its own lock) are annotated
// //checkinv:allow snapshotmut with the reason.
var SnapshotmutAnalyzer = &Analyzer{
	Name:  "snapshotmut",
	Doc:   "flag writes to atomic.Pointer-published snapshot types outside their constructors",
	Scope: []string{"internal", "cmd"},
	Check: checkSnapshotmut,
}

func checkSnapshotmut(p *Pass) {
	published := publishedTypes(p)
	if len(published) == 0 {
		return
	}
	for _, f := range p.Files {
		forEachFunc(f, func(fn funcNode) {
			if constructsPublished(p, fn, published) {
				return
			}
			ast.Inspect(fn.body(), func(n ast.Node) bool {
				if _, inner := n.(*ast.FuncLit); inner && n != fn.node {
					return false // inner functions get their own visit
				}
				switch st := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range st.Lhs {
						p.checkFrozenWrite(fn, lhs, published)
					}
				case *ast.IncDecStmt:
					p.checkFrozenWrite(fn, st.X, published)
				}
				return true
			})
		})
	}
}

// publishedTypes scans the package for atomic.Pointer[T] publish calls and
// returns the set of type names T that must be treated as frozen.
func publishedTypes(p *Pass) map[*types.TypeName]bool {
	out := map[*types.TypeName]bool{}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch sel.Sel.Name {
			case "Store", "Swap", "CompareAndSwap":
			default:
				return true
			}
			if tn := atomicPointerElem(p.TypeOf(sel.X)); tn != nil {
				out[tn] = true
			}
			return true
		})
	}
	return out
}

// atomicPointerElem returns the type name T when t is sync/atomic.Pointer[T]
// (possibly behind pointers) and T is a named type, else nil.
func atomicPointerElem(t types.Type) *types.TypeName {
	for {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil
	}
	if named.Obj().Pkg().Path() != "sync/atomic" || named.Obj().Name() != "Pointer" {
		return nil
	}
	args := named.TypeArgs()
	if args == nil || args.Len() != 1 {
		return nil
	}
	elem := args.At(0)
	for {
		ptr, ok := elem.(*types.Pointer)
		if !ok {
			break
		}
		elem = ptr.Elem()
	}
	if n, ok := elem.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

// publishedName returns the published type name a type resolves to, or nil.
func publishedName(t types.Type, published map[*types.TypeName]bool) *types.TypeName {
	if t == nil {
		return nil
	}
	for {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = ptr.Elem()
	}
	if n, ok := t.(*types.Named); ok && published[n.Obj()] {
		return n.Obj()
	}
	return nil
}

// checkFrozenWrite flags the write when the LHS chain passes through a value
// of a published type that the enclosing function did not freshly build.
func (p *Pass) checkFrozenWrite(fn funcNode, lhs ast.Expr, published map[*types.TypeName]bool) {
	// Walk the access chain outside-in: v.f, v.f[i], (*v).f, v.m[k]…  The
	// write mutates a published value when some strict prefix of the chain
	// (the container being written into) has a published type.
	for e := lhs; ; {
		var base ast.Expr
		switch x := e.(type) {
		case *ast.SelectorExpr:
			base = x.X
		case *ast.IndexExpr:
			base = x.X
		case *ast.StarExpr:
			base = x.X
		case *ast.ParenExpr:
			base = x.X
		default:
			return // plain ident rebind or unsupported shape
		}
		if tn := publishedName(p.TypeOf(base), published); tn != nil {
			if p.freshInFunc(fn, base) {
				return
			}
			p.Reportf(lhs.Pos(),
				"write to %s after publish: %s is published via atomic.Pointer and is frozen outside its constructor",
				tn.Name(), tn.Name())
			return
		}
		e = base
	}
}

// freshInFunc reports whether the written-through base expression denotes a
// value the function built itself: a local variable initialized from a
// composite literal or new(T), or a local value-typed var declaration.
// A base that is (or is derived from) an atomic Load, a parameter, a
// receiver or a struct field is not fresh.
func (p *Pass) freshInFunc(fn funcNode, base ast.Expr) bool {
	for {
		switch x := base.(type) {
		case *ast.ParenExpr:
			base = x.X
			continue
		case *ast.StarExpr:
			base = x.X
			continue
		}
		break
	}
	id, ok := base.(*ast.Ident)
	if !ok {
		return false // Load() result, field chain, … — treat as published
	}
	obj := p.Info.Uses[id]
	if obj == nil {
		return false
	}
	// The object must be local to this function.
	if obj.Pos() < fn.node.Pos() || obj.Pos() > fn.node.End() {
		return false
	}
	fresh := false
	ast.Inspect(fn.body(), func(n ast.Node) bool {
		if fresh {
			return false
		}
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, l := range st.Lhs {
				lid, ok := l.(*ast.Ident)
				if !ok || p.Info.Defs[lid] != obj && p.Info.Uses[lid] != obj {
					continue
				}
				if i < len(st.Rhs) && freshExpr(st.Rhs[i]) {
					fresh = true
				} else if len(st.Rhs) == 1 && len(st.Lhs) > 1 {
					// multi-assign from one call: unknown origin
				}
			}
		case *ast.ValueSpec:
			for i, name := range st.Names {
				if p.Info.Defs[name] != obj {
					continue
				}
				if st.Values == nil {
					// var v T — a zero value is private by construction
					// when T is a value type.
					if _, isPtr := obj.Type().(*types.Pointer); !isPtr {
						fresh = true
					}
				} else if i < len(st.Values) && freshExpr(st.Values[i]) {
					fresh = true
				}
			}
		}
		return !fresh
	})
	return fresh
}

// freshExpr reports whether the expression builds a brand-new value: a
// composite literal, &literal, or new(T).
func freshExpr(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			_, lit := x.X.(*ast.CompositeLit)
			return lit
		}
	case *ast.CallExpr:
		if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "new" {
			return true
		}
	}
	return false
}

// constructsPublished reports whether the function's results include one of
// the published types — the constructor exemption: the value is not yet
// reachable by readers while its builder runs.
func constructsPublished(p *Pass, fn funcNode, published map[*types.TypeName]bool) bool {
	ft := fn.typeExpr()
	if ft == nil || ft.Results == nil {
		return false
	}
	for _, field := range ft.Results.List {
		if publishedName(p.TypeOf(field.Type), published) != nil {
			return true
		}
	}
	return false
}
