package lint

import (
	"go/ast"
	"go/types"
)

// Program is the whole-analysis view shared by every analyzer of one
// Run: an index of the functions declared in every loaded package, so a
// summary can follow a call into another package. Analyzers reach it
// through Pass.Prog; purely syntactic analyzers can ignore it.
type Program struct {
	funcs map[*types.Func]*FuncInfo
}

// FuncInfo is one function or method declared with a body in the
// analyzed packages.
type FuncInfo struct {
	// Obj is the type-checker's object for the function.
	Obj *types.Func
	// Decl is the syntax; Decl.Body is non-nil.
	Decl *ast.FuncDecl
	// Pkg is the declaring package.
	Pkg *Package
}

// Name returns the function's package-qualified name for messages.
func (fi *FuncInfo) Name() string {
	recv := fi.Obj.Type().(*types.Signature).Recv()
	if recv != nil {
		return types.TypeString(deref(recv.Type()), qualifierShort) + "." + fi.Obj.Name()
	}
	return fi.Obj.Name()
}

// NewProgram indexes the declared functions of the given packages.
func NewProgram(pkgs []*Package) *Program {
	p := &Program{funcs: make(map[*types.Func]*FuncInfo)}
	for _, pkg := range pkgs {
		forEachFunc(pkg, func(fd *ast.FuncDecl) {
			obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				return
			}
			p.funcs[obj] = &FuncInfo{Obj: obj, Decl: fd, Pkg: pkg}
		})
	}
	return p
}

// CalleeObj resolves the callee object of a call expression using the
// package's type information. Resolution is static: direct calls to
// package-level functions, method calls on concrete receivers (the
// type-checker's selection gives the concrete method), and
// package-qualified calls. Calls through interface values, function
// variables or built-ins return nil.
func CalleeObj(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				// Interface dispatch yields the interface's method object,
				// which has no body in the program; Callee filters it.
				return f
			}
			return nil
		}
		// Package-qualified call (pkg.Func) has no selection entry.
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// Callee resolves a call site to a function declared (with a body) in
// the program, nil for dynamic calls and for the standard library,
// interface methods and anything else declared outside it.
func (p *Program) Callee(pkg *Package, call *ast.CallExpr) *FuncInfo {
	return p.funcs[CalleeObj(pkg.Info, call)]
}
