package lint

import (
	"go/ast"
	"go/types"
)

// ConnCheck flags error results silently dropped from connection-like
// I/O calls: Close, Write, Read (and friends) on values from the net and
// os packages, called as bare expression statements. A dropped Close
// error on a written file or socket is the classic silent-data-loss bug:
// the kernel reports the flush failure exactly once, in the return value
// nobody read. An explicit `_ = c.Close()` is treated as an intentional,
// visible discard and not reported.
var ConnCheck = &Analyzer{
	Name: "conncheck",
	Run:  runConnCheck,
}

// connCheckedMethods are the error-returning I/O methods worth checking.
var connCheckedMethods = map[string]bool{
	"Close": true, "Write": true, "Read": true,
	"ReadFrom": true, "WriteTo": true,
	"SetDeadline": true, "SetReadDeadline": true, "SetWriteDeadline": true,
	"Sync": true, "Flush": true,
}

// connCheckedPkgs are the packages whose values the check applies to.
var connCheckedPkgs = map[string]bool{"net": true, "os": true, "bufio": true}

func runConnCheck(pass *Pass) error {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := stmt.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !connCheckedMethods[sel.Sel.Name] {
				return true
			}
			s, ok := pass.Pkg.Info.Selections[sel]
			if !ok {
				return true
			}
			recv := deref(s.Recv())
			if !connCheckedPkgs[pkgOf(recv)] {
				return true
			}
			if !returnsError(s.Obj()) {
				return true
			}
			pass.Reportf(call.Pos(), "%s.%s error result dropped; check it or discard explicitly with _ =",
				types.TypeString(recv, qualifierShort), sel.Sel.Name)
			return true
		})
	}
	return nil
}

// returnsError reports whether obj is a function whose results include
// an error.
func returnsError(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		named, ok := sig.Results().At(i).Type().(*types.Named)
		if ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil {
			return true
		}
	}
	return false
}
