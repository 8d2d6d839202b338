package checkinv

import (
	"go/ast"
	"go/types"
	"strings"
)

// MapiterAnalyzer flags range-over-map loops whose iteration order can leak
// into observable output: the body appends to a slice declared outside the
// loop, sends on a channel, or writes to a stream.  Go randomizes map
// iteration order per run, so any of these makes mined itemsets, per-pass
// statistics or persisted results irreproducible.
//
// The v2 analysis keeps the safe idioms quiet with a function-scope use-def
// check instead of the old single-block heuristic:
//
//   - a collected slice that later reaches a canonicalizer — any sort.* or
//     slices.* call, or one of the project's known canonicalizing
//     constructors (itemset.New, itemset.AppendKey, which sort and dedup
//     their input) — anywhere in the same function, in any block, is
//     order-safe and never flagged;
//   - order-insensitive bodies (accumulating into another map, summing a
//     scalar) are never flagged.
//
// Channel sends and direct stream writes inside the loop body stay flagged
// unconditionally: the order has already escaped by the time any later
// statement could repair it.
var MapiterAnalyzer = &Analyzer{
	Name:  "mapiter",
	Doc:   "flag map iteration whose nondeterministic order reaches output",
	Scope: []string{"internal"},
	Check: checkMapiter,
}

// mapLeak is one way a range-over-map body exports iteration order.
type mapLeak struct {
	pos  ast.Node
	kind string
	// obj is the append target for append-kind leaks; canonicalizing it
	// later in the function neutralizes the leak.
	obj types.Object
}

func checkMapiter(p *Pass) {
	for _, f := range p.Files {
		enclosing := enclosingFuncs(f, func(n ast.Node) bool {
			_, ok := n.(*ast.RangeStmt)
			return ok
		})
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := p.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			for _, leak := range p.orderLeaks(rs) {
				if leak.obj != nil {
					if fn, ok := enclosing[ast.Node(rs)]; ok && p.canonicalizedAfter(fn, leak.obj, rs) {
						continue
					}
				}
				p.Reportf(rs.Pos(), "map iteration order reaches output (%s); sort before emitting or annotate", leak.kind)
				break // one finding per loop
			}
			return true
		})
	}
}

// orderLeaks classifies every way the loop body leaks iteration order.
func (p *Pass) orderLeaks(rs *ast.RangeStmt) []mapLeak {
	var leaks []mapLeak
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			leaks = append(leaks, mapLeak{pos: n, kind: "channel send in body"})
		case *ast.CallExpr:
			if p.isBuiltin(n, "append") {
				if obj := p.appendTargetOutside(n, rs.Body); obj != nil {
					leaks = append(leaks, mapLeak{pos: n, kind: "append to slice declared outside the loop", obj: obj})
				}
			} else if name := outputCallee(p, n); name != "" {
				leaks = append(leaks, mapLeak{pos: n, kind: "write via " + name})
			}
		}
		return true
	})
	return leaks
}

// appendTargetOutside returns the object appended to when it is declared
// outside the loop body (i.e. the appended order survives the loop), nil
// when the append cannot export order.  Non-identifier targets (fields,
// elements) necessarily outlive the loop and come back as an unnamed
// non-nil sentinel via the enclosing expression's object when resolvable;
// when not resolvable at all the caller flags unconditionally.
func (p *Pass) appendTargetOutside(call *ast.CallExpr, body *ast.BlockStmt) types.Object {
	if len(call.Args) == 0 {
		return nil
	}
	switch dst := call.Args[0].(type) {
	case *ast.Ident:
		obj := p.Info.Uses[dst]
		if obj == nil {
			return nil
		}
		if obj.Pos() >= body.Pos() && obj.Pos() <= body.End() {
			return nil // loop-local slice: order dies with the iteration
		}
		return obj
	case *ast.SelectorExpr:
		// x.f — storage outlives the loop; track the selection's object so
		// a later canonicalizer call on the same field can clear it.
		if sel, ok := p.Info.Selections[dst]; ok {
			return sel.Obj()
		}
		return fieldSentinel
	default:
		return fieldSentinel
	}
}

// fieldSentinel stands in for append targets the analysis cannot name; it
// never matches a canonicalizer argument, so such appends stay flagged.
var fieldSentinel types.Object = types.NewLabel(0, nil, "checkinv-unresolved-append-target")

// canonicalizedAfter reports whether the object reaches a canonicalizing
// call after pos anywhere in the enclosing function — across blocks, which
// is what the old single-block heuristic could not see.
func (p *Pass) canonicalizedAfter(fn funcNode, obj types.Object, pos ast.Node) bool {
	after := pos.End()
	found := false
	ast.Inspect(fn.body(), func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < after {
			return true
		}
		if !p.isCanonicalizer(call) {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(a ast.Node) bool {
				if found {
					return false
				}
				if id, ok := a.(*ast.Ident); ok {
					if p.Info.Uses[id] == obj || p.Info.Defs[id] == obj {
						found = true
					}
					// A field access x.f matches by the selection's object.
				}
				if sel, ok := a.(*ast.SelectorExpr); ok {
					if s, ok := p.Info.Selections[sel]; ok && s.Obj() == obj {
						found = true
					}
				}
				return !found
			})
		}
		return !found
	})
	return found
}

// isCanonicalizer reports whether the call erases input order: any sort.*
// or slices.* call, or a known canonicalizer from the project's itemset
// package — the itemset.New constructor (sorts and dedups its input) and
// the Itemset.AppendKey method (emits the canonical sorted key encoding).
func (p *Pass) isCanonicalizer(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if id, ok := sel.X.(*ast.Ident); ok {
		switch path := p.pkgNameOf(id); {
		case path == "sort" || path == "slices":
			return true
		case isItemsetPath(path):
			switch sel.Sel.Name {
			case "New", "AppendKey":
				return true
			}
		}
	}
	// Method form: v.AppendKey(dst) with an itemset receiver.
	if sel.Sel.Name == "AppendKey" {
		if t := p.TypeOf(sel.X); t != nil {
			if n, ok := t.(*types.Named); ok && n.Obj().Pkg() != nil && isItemsetPath(n.Obj().Pkg().Path()) {
				return true
			}
		}
	}
	return false
}

// isItemsetPath matches the project's itemset package under any module
// prefix (and the bare name, so fixtures type-checked standalone match).
func isItemsetPath(path string) bool {
	return path == "itemset" || strings.HasSuffix(path, "/itemset")
}

// outputCallee returns a printable name when the call writes to a stream:
// fmt.Print*/Fprint* or any method named Write*/Print*/Encode.
func outputCallee(p *Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	name := sel.Sel.Name
	if id, ok := sel.X.(*ast.Ident); ok && p.pkgNameOf(id) == "fmt" {
		switch name {
		case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
			return "fmt." + name
		}
		return ""
	}
	switch name {
	case "Write", "WriteString", "WriteByte", "WriteRune", "Print", "Printf", "Println", "Encode":
		// Only treat it as a stream write when the receiver is a value, not
		// an imported package (covered above).
		if id, ok := sel.X.(*ast.Ident); ok && p.pkgNameOf(id) != "" {
			return ""
		}
		return "method " + name
	}
	return ""
}
