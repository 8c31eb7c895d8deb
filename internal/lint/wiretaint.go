package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// WireTaint tracks wire-decoded values to enforcement state. Anything
// produced by the management-channel codec — readMsg/ReadMsg*/Decode*
// results, json.Unmarshal targets — is tainted until it flows through a
// Validate-family call; a tainted value reaching controller plan state,
// enforce deployment (Node.Install, Node.ApplyDelta, ...) or flow-table
// mutation is reported. The paper's dependability argument (§III-A)
// assumes devices never act on unvalidated controller input and the
// controller never solves on unvalidated measurements; this analyzer
// makes that a build-time property instead of a convention.
//
// Propagation is flow-sensitive and object-granular (taint.go) and
// follows values into function literals (the live runtime applies
// configuration via Device.Do closures). Calls to module functions are
// additionally checked against interprocedural summaries: a function
// that forwards parameter i to a sink within callDepth call edges
// is itself a sink in position i, so the report lands at the call site
// that held the tainted value.
var WireTaint = &Analyzer{
	Name: "wiretaint",
	Run:  runWireTaint,
}

// wireSinkMethods maps a defining-package path suffix to the method or
// function names that constitute enforcement state for that package.
// Matching by suffix keeps the table valid for the fixture modules the
// golden tests load (their packages end in the same suffixes).
var wireSinkMethods = map[string][]string{
	"internal/enforce":   {"Install", "ApplyDelta"},
	"internal/flowtable": {"Insert", "Install", "Set", "Add"},
	// The control loop's inputs: measurements (Recompute), dirty marks and
	// the failed set. A wire-decoded report must be validated before the
	// pipeline solves on it.
	"internal/controller": {
		"Recompute", "PolicyChanged", "NodeChanged", "MarkFailed",
	},
}

func runWireTaint(pass *Pass) error {
	w := &wireTaint{pass: pass, summaries: make(map[*FuncInfo][]bool)}
	w.t = &taintAnalysis{pass: pass, spec: taintSpec{
		sourceResults: w.isSourceCall,
		sourceArgs:    w.sourceArgs,
		sanitized:     w.sanitizedExprs,
		propagate:     true,
	}}
	forEachFunc(pass.Pkg, func(fd *ast.FuncDecl) {
		w.t.run(fd.Body, make(FactSet), func(call *ast.CallExpr, tainted func(ast.Expr) bool) {
			w.checkCall(call, tainted)
		})
	})
	return nil
}

type wireTaint struct {
	pass *Pass
	t    *taintAnalysis
	// summaries memoizes, per module function, which parameters reach a
	// sink (directly or through deeper summaries).
	summaries map[*FuncInfo][]bool
	inFlight  map[*FuncInfo]bool
}

// isSourceCall recognizes wire-codec producers by callee name:
// readMsg/ReadMsg*, Decode*/decode*.
func (w *wireTaint) isSourceCall(call *ast.CallExpr) bool {
	name := calleeName(w.pass, call)
	return name == "readMsg" || strings.HasPrefix(name, "ReadMsg") ||
		strings.HasPrefix(name, "Decode") || strings.HasPrefix(name, "decode")
}

// sourceArgs taints the pointer targets of json.Unmarshal and
// (json.Decoder).Decode.
func (w *wireTaint) sourceArgs(call *ast.CallExpr) []ast.Expr {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if pkgPath, ok := packageQualifier(w.pass, sel); ok {
		if pkgPath == "encoding/json" && sel.Sel.Name == "Unmarshal" && len(call.Args) == 2 {
			return call.Args[1:2]
		}
		return nil
	}
	if sel.Sel.Name == "Decode" && len(call.Args) == 1 {
		if recv := receiverTypeOf(w.pass, sel); recv != nil && isNamedIn(recv, "encoding/json", "Decoder") {
			return call.Args[:1]
		}
	}
	return nil
}

// sanitizedExprs treats Validate-family calls as cleansing their
// receiver and arguments.
func (w *wireTaint) sanitizedExprs(call *ast.CallExpr) []ast.Expr {
	name := calleeName(w.pass, call)
	if !strings.HasPrefix(name, "Validate") && !strings.HasPrefix(name, "validate") {
		return nil
	}
	out := append([]ast.Expr(nil), call.Args...)
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		out = append(out, sel.X)
	}
	return out
}

// checkCall reports tainted values reaching a sink, directly or through
// an interprocedural summary.
func (w *wireTaint) checkCall(call *ast.CallExpr, tainted func(ast.Expr) bool) {
	if desc, ok := w.sinkDesc(call); ok {
		for _, arg := range call.Args {
			if tainted(arg) {
				w.pass.Reportf(call.Pos(),
					"wire-decoded value reaches %s without a Validate call", desc)
				return
			}
		}
		return
	}
	callee := w.pass.Prog.Callee(w.pass.Pkg, call)
	if callee == nil {
		return
	}
	params := w.sinkParams(callee, callDepth)
	for i, arg := range call.Args {
		if i < len(params) && params[i] && tainted(arg) {
			w.pass.Reportf(call.Pos(),
				"wire-decoded value reaches enforcement state through %s (parameter %d) without a Validate call",
				callee.Name(), i+1)
			return
		}
	}
}

// sinkDesc classifies a call as a direct enforcement-state sink.
func (w *wireTaint) sinkDesc(call *ast.CallExpr) (string, bool) {
	obj := CalleeObj(w.pass.Pkg.Info, call)
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	for suffix, names := range wireSinkMethods {
		if !strings.HasSuffix(obj.Pkg().Path(), suffix) {
			continue
		}
		for _, n := range names {
			if obj.Name() == n {
				return qualifiedCallee(obj), true
			}
		}
	}
	return "", false
}

// sinkParams computes (memoized) which parameters of fi flow to a sink
// within the given call depth. Cycles resolve to "no sink" for the
// in-flight function, which is the safe under-approximation here.
func (w *wireTaint) sinkParams(fi *FuncInfo, depth int) []bool {
	if s, ok := w.summaries[fi]; ok {
		return s
	}
	if depth <= 0 || w.inFlight[fi] {
		return nil
	}
	if w.inFlight == nil {
		w.inFlight = make(map[*FuncInfo]bool)
	}
	w.inFlight[fi] = true
	defer delete(w.inFlight, fi)

	sig := fi.Obj.Type().(*types.Signature)
	out := make([]bool, sig.Params().Len())
	// One taint run per parameter keeps the attribution exact: the only
	// tainted root in the run is the parameter under test.
	sub := &wireTaint{pass: passFor(w.pass, fi.Pkg), summaries: w.summaries, inFlight: w.inFlight}
	sub.t = &taintAnalysis{pass: sub.pass, spec: taintSpec{
		sanitized: sub.sanitizedExprs,
		propagate: true,
	}}
	for i := 0; i < sig.Params().Len(); i++ {
		entry := make(FactSet)
		entry.Add(sig.Params().At(i))
		reached := false
		sub.t.run(fi.Decl.Body, entry, func(call *ast.CallExpr, tainted func(ast.Expr) bool) {
			if reached {
				return
			}
			if _, ok := sub.sinkDesc(call); ok {
				for _, arg := range call.Args {
					if tainted(arg) {
						reached = true
						return
					}
				}
				return
			}
			callee := sub.pass.Prog.Callee(sub.pass.Pkg, call)
			if callee == nil || callee == fi {
				return
			}
			deeper := w.sinkParams(callee, depth-1)
			for j, arg := range call.Args {
				if j < len(deeper) && deeper[j] && tainted(arg) {
					reached = true
					return
				}
			}
		})
		out[i] = reached
	}
	w.summaries[fi] = out
	return out
}

// passFor makes a sibling Pass targeting another package of the same
// run (summaries cross package boundaries; reporting still goes through
// the original pass).
func passFor(orig *Pass, pkg *Package) *Pass {
	if pkg == orig.Pkg {
		return orig
	}
	return &Pass{Analyzer: orig.Analyzer, Pkg: pkg, Prog: orig.Prog, report: func(Diagnostic) {}}
}

// calleeName returns the callee's bare name: resolved object name when
// type information has it, the syntactic selector/ident otherwise.
func calleeName(pass *Pass, call *ast.CallExpr) string {
	if obj := CalleeObj(pass.Pkg.Info, call); obj != nil {
		return obj.Name()
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// qualifiedCallee renders pkg.Type.Method or pkg.Func for messages.
func qualifiedCallee(obj *types.Func) string {
	name := obj.Name()
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		return types.TypeString(deref(sig.Recv().Type()), qualifierShort) + "." + name
	}
	if obj.Pkg() != nil {
		return obj.Pkg().Name() + "." + name
	}
	return name
}

// receiverTypeOf resolves the receiver type of a method selection.
func receiverTypeOf(pass *Pass, sel *ast.SelectorExpr) types.Type {
	if s, ok := pass.Pkg.Info.Selections[sel]; ok {
		return deref(s.Recv())
	}
	if tv, ok := pass.Pkg.Info.Types[sel.X]; ok {
		return deref(tv.Type)
	}
	return nil
}
