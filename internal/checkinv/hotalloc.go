package checkinv

import (
	"go/ast"
	"go/types"
)

// HotallocAnalyzer enforces allocation discipline on functions annotated
// //checkinv:hotpath — the subset-counting walk, the trie scan and the
// Recommend merge, where arXiv:1511.07017 shows data-structure and
// allocation behavior dominates Apriori runtime.  Inside any loop of an
// annotated function it flags the per-iteration heap escapes that
// profiling keeps rediscovering:
//
//   - fmt.* and errors.New calls (formatting machinery plus an allocation
//     per iteration — hoist or drop to the cold path);
//   - append to a function-local slice declared without preallocated
//     capacity (var s []T / s := []T{} — growth reallocates along the hot
//     loop; make with a capacity, or reuse a caller-provided buffer);
//   - function literals (a closure allocates per iteration once it
//     captures);
//   - basic values (ints, floats, bools) passed to interface parameters —
//     implicit boxing allocates per call.
//
// Unannotated functions are never inspected, so the rule is opt-in and
// zero-noise; intentional sites inside a hot path carry
// //checkinv:allow hotalloc with the reason.
var HotallocAnalyzer = &Analyzer{
	Name: "hotalloc",
	Doc:  "flag per-iteration heap escapes in //checkinv:hotpath functions",
	// Opt-in via the annotation, so every package is in scope (nil Scope).
	Check: checkHotalloc,
}

func checkHotalloc(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !isHotpath(fd) || fd.Body == nil {
				continue
			}
			p.checkHotFunc(fd)
		}
	}
}

// checkHotFunc walks one annotated function, tracking loop depth.
func (p *Pass) checkHotFunc(fd *ast.FuncDecl) {
	var loops []ast.Node // enclosing loop stack
	var stack []ast.Node
	ast.Inspect(fd, func(n ast.Node) bool {
		if n == nil {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if len(loops) > 0 && loops[len(loops)-1] == top {
				loops = loops[:len(loops)-1]
			}
			return true
		}
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loops = append(loops, n)
		case *ast.FuncLit:
			if len(loops) > 0 {
				p.Reportf(n.Pos(), "closure literal in a hot loop allocates per iteration; hoist it out of the loop")
			}
		case *ast.CallExpr:
			if len(loops) > 0 {
				p.checkHotCall(fd, n, loops[0])
			}
		}
		stack = append(stack, n)
		return true
	})
}

// checkHotCall classifies one call inside a hot loop.  outermost is the
// outermost enclosing loop — the boundary for the "outer slice" test.
func (p *Pass) checkHotCall(fd *ast.FuncDecl, call *ast.CallExpr, outermost ast.Node) {
	if p.isBuiltin(call, "append") {
		p.checkHotAppend(fd, call, outermost)
		return
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			switch p.pkgNameOf(id) {
			case "fmt":
				p.Reportf(call.Pos(), "fmt.%s in a hot loop allocates per iteration; hoist formatting to the cold path", sel.Sel.Name)
				return
			case "errors":
				if sel.Sel.Name == "New" {
					p.Reportf(call.Pos(), "errors.New in a hot loop allocates per iteration; declare the error once as a package var")
					return
				}
			}
		}
	}
	p.checkBoxing(call)
}

// checkHotAppend flags appends whose destination is a function-local slice
// declared outside the loop without preallocated capacity — the growth
// reallocations land on every hot iteration.
func (p *Pass) checkHotAppend(fd *ast.FuncDecl, call *ast.CallExpr, outermost ast.Node) {
	if len(call.Args) == 0 {
		return
	}
	dst, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return // field/deref targets: ownership lies elsewhere, rawchan-style review applies
	}
	obj := p.Info.Uses[dst]
	if obj == nil {
		return
	}
	// Only local slices the function itself declared: parameters are the
	// caller's buffers (the reuse idiom the serve scan path is built on).
	if obj.Pos() < fd.Pos() || obj.Pos() > fd.End() {
		return
	}
	if obj.Pos() >= outermost.Pos() && obj.Pos() <= outermost.End() {
		return // declared inside the loop: per-iteration by design, not growth-in-loop
	}
	decl, found := p.localDecl(fd, obj)
	if !found || preallocated(decl) {
		return
	}
	if isParamOf(fd, obj, p) {
		return
	}
	p.Reportf(call.Pos(), "append to %s grows an unpreallocated slice across hot-loop iterations; make it with capacity or reuse a buffer", dst.Name)
}

// localDecl finds the expression the object was declared with inside the
// function; found is false for parameters and captured outer variables.
func (p *Pass) localDecl(fd *ast.FuncDecl, obj types.Object) (ast.Expr, bool) {
	var init ast.Expr
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, l := range st.Lhs {
				if lid, ok := l.(*ast.Ident); ok && p.Info.Defs[lid] == obj {
					found = true
					if i < len(st.Rhs) {
						init = st.Rhs[i]
					}
				}
			}
		case *ast.ValueSpec:
			for i, name := range st.Names {
				if p.Info.Defs[name] == obj {
					found = true
					if st.Values != nil && i < len(st.Values) {
						init = st.Values[i]
					}
				}
			}
		}
		return !found
	})
	return init, found
}

// preallocated reports whether the declaring expression reserves capacity:
// make with an explicit length or capacity, a non-empty literal, or any
// call (an unknown constructor is given the benefit of the doubt).
func preallocated(init ast.Expr) bool {
	switch x := init.(type) {
	case nil:
		return false // var s []T
	case *ast.CompositeLit:
		return len(x.Elts) > 0
	case *ast.CallExpr:
		if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "make" {
			return len(x.Args) >= 2 // make([]T, n) or make([]T, 0, c)
		}
		return true
	case *ast.Ident:
		return x.Name != "nil"
	}
	return true
}

// isParamOf reports whether obj is one of the function's parameters or
// results.
func isParamOf(fd *ast.FuncDecl, obj types.Object, p *Pass) bool {
	check := func(fl *ast.FieldList) bool {
		if fl == nil {
			return false
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if p.Info.Defs[name] == obj {
					return true
				}
			}
		}
		return false
	}
	if check(fd.Type.Params) || check(fd.Type.Results) {
		return true
	}
	if fd.Recv != nil && check(fd.Recv) {
		return true
	}
	return false
}

// checkBoxing flags basic-typed arguments passed to interface parameters —
// the implicit conversion heap-allocates the box on every call.
func (p *Pass) checkBoxing(call *ast.CallExpr) {
	sig, ok := p.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	if params == nil || params.Len() == 0 {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		if sig.Variadic() && i >= params.Len()-1 {
			last := params.At(params.Len() - 1).Type()
			if sl, ok := last.(*types.Slice); ok {
				pt = sl.Elem()
			}
			if call.Ellipsis.IsValid() {
				continue // s... passes the slice through, no boxing
			}
		} else if i < params.Len() {
			pt = params.At(i).Type()
		}
		if pt == nil {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := p.TypeOf(arg)
		if at == nil {
			continue
		}
		if b, ok := at.Underlying().(*types.Basic); ok && b.Info()&(types.IsNumeric|types.IsBoolean) != 0 {
			p.Reportf(arg.Pos(), "%s value boxed into interface parameter in a hot loop allocates per call", at.String())
		}
	}
}
