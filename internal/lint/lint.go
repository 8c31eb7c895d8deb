// Package lint is a self-contained static-analysis framework for this
// repository: a deliberately small reimplementation of the
// golang.org/x/tools/go/analysis surface (Analyzer / Pass / Diagnostic)
// on top of the standard library's go/ast and go/types, so the project
// needs no external module to run its own vet pass (cmd/sdme-vet).
//
// Beyond the AST layer, the package carries a small dataflow engine —
// per-function control-flow graphs (cfg.go), a program-wide function
// index with static call resolution (program.go), a forward fixpoint
// solver (dataflow.go) and an object-granular taint propagation layer
// (taint.go). DESIGN.md §9 documents the architecture, the finding each
// analyzer has earned its place with, and the contract for adding one.
//
// Three analyzers ship with it:
//
//   - lockedblocking flags blocking operations (channel sends/receives,
//     selects without default, sync.WaitGroup.Wait, net connection I/O,
//     time.Sleep) performed while a sync.Mutex or RWMutex is held — and,
//     interprocedurally, calls whose static callees block up to
//     callDepth edges below the lock site;
//   - conncheck flags dropped error results from Close/Write/Read calls
//     on net and os connection-like values (an explicit `_ =` counts as
//     an intentional discard);
//   - wiretaint tracks values produced by the management-channel wire
//     codec (readMsg/Decode*/json.Unmarshal) and reports any that reach
//     enforcement state (Node.Install, SetWeights, flow-table mutation,
//     controller solvers) without passing a Validate-family call.
//
// A finding can be suppressed with a line comment on the offending line
// or the line above it:
//
//	//vet:ignore lockedblocking -- write mutex only serializes this conn
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one static check, mirroring the x/tools analysis.Analyzer
// shape so checks port between the two worlds mechanically.
type Analyzer struct {
	// Name identifies the analyzer in reports and //vet:ignore comments.
	Name string
	// Run executes the check over one package, reporting findings via
	// pass.Reportf.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	// Prog is the whole-run view (every package of this Run and its
	// function index) for interprocedural analyzers. Purely syntactic
	// analyzers can ignore it.
	Prog   *Program
	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.report(Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the canonical file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Analyzers returns the default analyzer set, the one cmd/sdme-vet runs.
func Analyzers() []*Analyzer {
	return []*Analyzer{LockedBlocking, ConnCheck, WireTaint}
}

// callDepth bounds how many static call edges an interprocedural
// summary (lockedblocking's blocking search, wiretaint's sink
// parameters) follows below a call site.
const callDepth = 3

// Run executes the analyzers over the packages, applies //vet:ignore
// suppressions, and returns the surviving diagnostics sorted by
// position. Analyzer run errors are returned after all packages were
// attempted.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	var firstErr error
	prog := NewProgram(pkgs)
	for _, pkg := range pkgs {
		ignored := ignoredLines(pkg)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Pkg:      pkg,
				Prog:     prog,
				report: func(d Diagnostic) {
					if ignored[suppressKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}] ||
						ignored[suppressKey{d.Pos.Filename, d.Pos.Line, "*"}] {
						return
					}
					diags = append(diags, d)
				},
			}
			if err := a.Run(pass); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, firstErr
}

// suppressKey addresses one suppressed (file, line, analyzer) triple.
type suppressKey struct {
	file     string
	line     int
	analyzer string
}

var ignoreRe = regexp.MustCompile(`^//vet:ignore\s+([a-zA-Z0-9_,*-]+)`)

// ignoredLines scans a package's comments for //vet:ignore directives. A
// directive suppresses the named analyzers (comma-separated, or * for
// all) on its own line and on the following line, so it works both as a
// trailing comment and as a standalone line above the finding.
func ignoredLines(pkg *Package) map[suppressKey]bool {
	out := make(map[suppressKey]bool)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, name := range strings.Split(m[1], ",") {
					name = strings.TrimSpace(name)
					if name == "" {
						continue
					}
					out[suppressKey{pos.Filename, pos.Line, name}] = true
					out[suppressKey{pos.Filename, pos.Line + 1, name}] = true
				}
			}
		}
	}
	return out
}

// forEachFunc invokes fn for every function or method declaration with a
// body in the package, in file order.
func forEachFunc(pkg *Package, fn func(*ast.FuncDecl)) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}

// packageQualifier reports whether sel is `pkgname.X` for an imported
// package, returning that package's import path.
func packageQualifier(pass *Pass, sel *ast.SelectorExpr) (string, bool) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := pass.Pkg.Info.Uses[id].(*types.PkgName)
	if !ok {
		return "", false
	}
	return pn.Imported().Path(), true
}
