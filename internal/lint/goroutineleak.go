package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// GoroutineLeak flags `go` statements in the long-lived packages whose
// goroutine has no reachable stop path: the body's CFG can neither
// reach the function exit (every path loops forever) nor observe a stop
// signal — a receive, select case or range over a closeable channel, or
// a ctx.Done()/ctx.Err() check — directly or in any statically reachable
// callee (GoroutineLeakDepth call edges). Timer channels (time.Ticker.C,
// time.Timer.C, time.After, time.Tick) do not count: a goroutine parked
// on a ticker nobody stops is exactly the leak this catches.
//
// The management channel, live runtime, simulator and metrics registry
// are long-lived by design — a leaked goroutine there accumulates for
// the lifetime of the controller process the paper's production claims
// depend on. Short-lived command packages are exempt.
var GoroutineLeak = &Analyzer{
	Name: "goroutineleak",
	Doc:  "flag goroutines with no reachable stop path in long-lived packages",
	Run:  runGoroutineLeak,
}

// GoroutineLeakDepth bounds the call-graph search for a stop signal
// below the goroutine entry (cmd/sdme-vet -leakdepth).
var GoroutineLeakDepth = 3

// goroutineLeakPkgs are the guarded import-path suffixes.
var goroutineLeakPkgs = []string{
	"/internal/mgmt",
	"/internal/live",
	"/internal/sim",
	"/internal/metrics",
	"/internal/controller",
	"/internal/ha",
}

func runGoroutineLeak(pass *Pass) error {
	guarded := false
	for _, suffix := range goroutineLeakPkgs {
		if strings.HasSuffix(pass.Pkg.Path, suffix) {
			guarded = true
			break
		}
	}
	if !guarded {
		return nil
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			checkGoStmt(pass, gs)
			return true
		})
	}
	return nil
}

func checkGoStmt(pass *Pass, gs *ast.GoStmt) {
	var body *ast.BlockStmt
	var entry *FuncInfo
	desc := "goroutine"
	if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		body = lit.Body
	} else {
		entry = pass.Prog.Callee(pass.Pkg, gs.Call)
		if entry == nil {
			return // dynamic dispatch: can't see the body
		}
		body = entry.Decl.Body
		desc = entry.Name()
	}

	// A body whose exit is reachable can terminate on its own; no stop
	// signal needed.
	if BuildCFG(body).ExitReachable() {
		return
	}
	if hasStopPath(pass, body) {
		return
	}
	// Look for a stop signal in statically reachable callees.
	roots := directCallees(pass, body)
	if entry != nil {
		roots = []*FuncInfo{entry}
	}
	found := false
	pass.Prog.Reachable(roots, GoroutineLeakDepth, func(fi *FuncInfo) {
		if !found && fi != entry && hasStopPath(passFor(pass, fi.Pkg), fi.Decl.Body) {
			found = true
		}
	})
	if found {
		return
	}
	pass.Reportf(gs.Pos(),
		"%s has no stop path: no reachable return and no ctx/done/closed-channel read (package %s is long-lived)",
		desc, pass.Pkg.Types.Name())
}

// directCallees resolves the static callees invoked directly by a body
// (used as call-graph roots for a function literal).
func directCallees(pass *Pass, body *ast.BlockStmt) []*FuncInfo {
	var out []*FuncInfo
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if fi := pass.Prog.Callee(pass.Pkg, call); fi != nil {
				out = append(out, fi)
			}
		}
		return true
	})
	return out
}

// hasStopPath scans one body (nested literals excluded — they run on
// their own schedule) for an operation that lets the goroutine observe
// shutdown: a receive/select/range on a non-timer channel, a
// context.Context Done/Err call, or an unconditional panic.
func hasStopPath(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !isTimerChan(pass, n.X) {
				found = true
			}
		case *ast.RangeStmt:
			if tv, ok := pass.Pkg.Info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan && !isTimerChan(pass, n.X) {
					found = true
				}
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				if recv := receiverTypeOf(pass, sel); recv != nil &&
					isNamedIn(recv, "context", "Context") &&
					(sel.Sel.Name == "Done" || sel.Sel.Name == "Err") {
					found = true
				}
			}
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "panic" {
				found = true // unwinds: not a leak, a crash
			}
		}
		return true
	})
	return found
}

// isTimerChan reports whether a channel expression is a timer source
// (time.Ticker.C / time.Timer.C fields, time.After / time.Tick calls):
// these fire forever or once but are never closed, so reading them is
// not a stop path.
func isTimerChan(pass *Pass, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if e.Sel.Name != "C" {
			return false
		}
		if tv, ok := pass.Pkg.Info.Types[e.X]; ok {
			t := deref(tv.Type)
			return isNamedIn(t, "time", "Ticker") || isNamedIn(t, "time", "Timer")
		}
	case *ast.CallExpr:
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
			if pkgPath, ok := packageQualifier(pass, sel); ok && pkgPath == "time" {
				return sel.Sel.Name == "After" || sel.Sel.Name == "Tick"
			}
		}
	}
	return false
}
