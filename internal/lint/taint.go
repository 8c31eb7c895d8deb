package lint

import (
	"go/ast"
	"go/types"
)

// taintSpec classifies calls for one taint analysis: wiretaint runs the
// engine (taintAnalysis) once with wire decoders as sources, and once
// per parameter, with no sources, when it summarizes a callee.
type taintSpec struct {
	// sourceResults: a call whose results are tainted (wire decoders).
	sourceResults func(call *ast.CallExpr) bool
	// sourceArgs: arguments a call taints through pointers
	// (json.Unmarshal's target).
	sourceArgs func(call *ast.CallExpr) []ast.Expr
	// sanitized: expressions a call cleanses (Validate receiver/args).
	sanitized func(call *ast.CallExpr) []ast.Expr
	// propagate: a call with a tainted argument or receiver returns
	// tainted results.
	propagate bool
}

// taintAnalysis runs a forward, flow-sensitive, object-granular taint
// propagation over one function body. Facts are *types.Var objects (a
// tainted variable taints every field/index selection rooted at it).
type taintAnalysis struct {
	pass *Pass
	spec taintSpec
}

// rootVar unwraps an lvalue-ish expression chain (selectors, indexes,
// derefs, address-of, parens) to its base variable object, nil when the
// base is not a simple variable.
func (t *taintAnalysis) rootVar(e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			// pkg.X selections root at the package, not a variable.
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := t.pass.Pkg.Info.Uses[id].(*types.PkgName); isPkg {
					return nil
				}
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.Ident:
			if v, ok := t.objOf(x).(*types.Var); ok {
				return v
			}
			return nil
		default:
			return nil
		}
	}
}

func (t *taintAnalysis) objOf(id *ast.Ident) types.Object {
	if o := t.pass.Pkg.Info.Uses[id]; o != nil {
		return o
	}
	return t.pass.Pkg.Info.Defs[id]
}

// exprTainted reports whether evaluating e can yield a tainted value
// under the current facts. Function literals are opaque here — their
// bodies are analyzed separately with the facts at their creation
// point.
func (t *taintAnalysis) exprTainted(e ast.Expr, facts FactSet) bool {
	if e == nil {
		return false
	}
	tainted := false
	ast.Inspect(e, func(n ast.Node) bool {
		if tainted {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.Ident:
			if v, ok := t.objOf(n).(*types.Var); ok && facts.Has(v) {
				tainted = true
			}
		case *ast.CallExpr:
			if t.callResultTainted(n, facts) {
				tainted = true
			}
		}
		return true
	})
	return tainted
}

// callResultTainted classifies one call's results.
func (t *taintAnalysis) callResultTainted(call *ast.CallExpr, facts FactSet) bool {
	if t.spec.sourceResults != nil && t.spec.sourceResults(call) {
		return true
	}
	if !t.spec.propagate {
		return false
	}
	// A sanitizer's results are clean by definition (Validate returns
	// only an error).
	if t.spec.sanitized != nil && len(t.spec.sanitized(call)) > 0 {
		return false
	}
	for _, arg := range call.Args {
		if t.exprTainted(arg, facts) {
			return true
		}
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if t.exprTainted(sel.X, facts) {
			return true
		}
	}
	return false
}

// applyCalls processes the source/sanitizer side effects of every call
// inside node n, in source order.
func (t *taintAnalysis) applyCalls(n ast.Node, facts FactSet) {
	ast.Inspect(n, func(node ast.Node) bool {
		if _, ok := node.(*ast.FuncLit); ok {
			return false
		}
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		if t.spec.sanitized != nil {
			for _, e := range t.spec.sanitized(call) {
				if v := t.rootVar(e); v != nil {
					facts.Delete(v)
				}
			}
		}
		if t.spec.sourceArgs != nil {
			for _, e := range t.spec.sourceArgs(call) {
				if v := t.rootVar(e); v != nil {
					facts.Add(v)
				}
			}
		}
		return true
	})
}

// transfer is the dataflow transfer function: call side effects first,
// then assignment-shaped fact updates.
func (t *taintAnalysis) transfer(n ast.Node, facts FactSet) FactSet {
	t.applyCalls(n, facts)
	switch s := n.(type) {
	case *ast.ExprStmt:
		// side effects only
	case *ast.AssignStmt:
		t.assign(s.Lhs, s.Rhs, facts)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
					lhs := make([]ast.Expr, len(vs.Names))
					for i, id := range vs.Names {
						lhs[i] = id
					}
					t.assign(lhs, vs.Values, facts)
				}
			}
		}
	case *ast.RangeStmt:
		if t.exprTainted(s.X, facts) {
			for _, e := range []ast.Expr{s.Key, s.Value} {
				if e != nil {
					if v := t.rootVar(e); v != nil {
						facts.Add(v)
					}
				}
			}
		}
	}
	return facts
}

// assign updates facts for one (possibly tuple) assignment.
func (t *taintAnalysis) assign(lhs, rhs []ast.Expr, facts FactSet) {
	for i, l := range lhs {
		var r ast.Expr
		if len(rhs) == len(lhs) {
			r = rhs[i]
		} else if len(rhs) == 1 {
			r = rhs[0] // tuple-producing call: every LHS shares its taint
		}
		v := t.rootVar(l)
		if v == nil {
			continue
		}
		if r != nil && t.exprTainted(r, facts) {
			facts.Add(v)
		} else if _, plain := l.(*ast.Ident); plain {
			// Strong update only for whole-variable writes; writing one
			// field of a tainted struct does not clean the rest.
			facts.Delete(v)
		}
	}
}

// run analyzes one function body: fixpoint first, then a reporting walk
// that hands every call (with a taint predicate closed over the facts
// in force at that point) to onCall. Function literals are analyzed
// recursively with the facts at their creation point, so a tainted
// value captured by a closure is still tracked to sinks inside it.
func (t *taintAnalysis) run(body *ast.BlockStmt, entry FactSet, onCall func(call *ast.CallExpr, tainted func(ast.Expr) bool)) {
	cfg := BuildCFG(body)
	in := Forward(cfg, entry, t.transfer)
	WalkReachable(cfg, in, t.transfer, func(n ast.Node, facts FactSet) {
		ast.Inspect(n, func(node ast.Node) bool {
			switch node := node.(type) {
			case *ast.FuncLit:
				t.run(node.Body, facts.Clone(), onCall)
				return false
			case *ast.CallExpr:
				onCall(node, func(e ast.Expr) bool { return t.exprTainted(e, facts) })
			}
			return true
		})
	})
}
