package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed and type-checked package.
type Package struct {
	// Path is the import path (module path + relative directory).
	Path string
	// Dir is the absolute source directory.
	Dir string
	// Fset is shared across every package of one Loader.
	Fset *token.FileSet
	// Files are the parsed non-test sources, in file-name order.
	Files []*ast.File
	// Types and Info carry full type information. Standard-library
	// imports are type-checked from GOROOT source, module imports from
	// the module tree, so selections resolve to real sync/net/time
	// objects without any export-data dependency.
	Types *types.Package
	Info  *types.Info
}

// Loader loads module packages with the standard library's tooling
// only: go/parser for syntax, go/types for semantics, and the
// source-level importer for GOROOT packages. It is the replacement for
// x/tools' go/packages in this dependency-free setup. It loads the files
// `go build` would compile for the target GOOS/GOARCH (build.Default, so
// the GOOS environment variable selects it); test files are not loaded.
// A package that does not type-check is a load error: an analyzer run
// on a partially typed package would miss findings silently.
type Loader struct {
	// ModRoot is the directory containing go.mod; ModPath the declared
	// module path.
	ModRoot, ModPath string

	fset *token.FileSet
	std  types.ImporterFrom
	pkgs map[string]*Package // by import path; nil entry = in progress
}

// NewLoader locates the enclosing module of dir (walking upward to the
// nearest go.mod) and prepares a loader for it.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			modPath = strings.Trim(strings.TrimSpace(rest), `"`)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("lint: no module directive in %s/go.mod", root)
	}
	// The source importer resolves GOROOT packages via go/build; with
	// cgo disabled every package it needs (net included) has a pure-Go
	// build, so no compiled export data is required.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: source importer does not implement ImporterFrom")
	}
	return &Loader{
		ModRoot: root,
		ModPath: modPath,
		fset:    fset,
		std:     std,
		pkgs:    make(map[string]*Package),
	}, nil
}

// Load resolves the patterns ("./...", "./internal/live", "dir/...",
// or import paths rooted at the module path) and returns the matched
// packages, loading transitive module dependencies as needed (the
// dependencies are type-checked but only matched packages are
// returned).
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var dirs []string
	seen := make(map[string]bool)
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		pat = strings.TrimSuffix(pat, "/")
		if rest, ok := strings.CutPrefix(pat, l.ModPath); ok && (rest == "" || rest[0] == '/') {
			pat = "." + rest
		}
		recursive := false
		if strings.HasSuffix(pat, "/...") || pat == "..." {
			recursive = true
			pat = strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
			if pat == "" {
				pat = "."
			}
		}
		base := pat
		if !filepath.IsAbs(base) {
			base = filepath.Join(l.ModRoot, base)
		}
		if !recursive {
			if hasGoFiles(base) {
				add(base)
			}
			continue
		}
		err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			if hasGoFiles(p) {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("lint: walk %s: %w", base, err)
		}
	}
	sort.Strings(dirs)
	out := make([]*Package, 0, len(dirs))
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.ModRoot, dir)
		if err != nil {
			return nil, err
		}
		path := l.ModPath
		if rel != "." {
			path = l.ModPath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.loadPackage(path)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// hasGoFiles reports whether dir directly contains non-test Go sources
// for the target platform.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && isSourceFile(dir, e.Name()) {
			return true
		}
	}
	return false
}

// isSourceFile selects the files the loader analyzes: non-test Go
// sources (generated or not) whose file name and build constraints
// match the target platform. build.Context.MatchFile also skips names
// starting with "." or "_".
func isSourceFile(dir, name string) bool {
	if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
		return false
	}
	ok, err := build.Default.MatchFile(dir, name)
	return ok && err == nil
}

// loadPackage parses and type-checks one module package (memoized).
func (l *Loader) loadPackage(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("lint: import cycle through %s", path)
		}
		return pkg, nil
	}
	l.pkgs[path] = nil // cycle marker

	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/")
	dir := filepath.Join(l.ModRoot, filepath.FromSlash(rel))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: package %s: %w", path, err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !isSourceFile(dir, e.Name()) {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", filepath.Join(dir, e.Name()), err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: package %s has no Go files", path)
	}

	pkg := &Package{
		Path: path,
		Dir:  dir,
		Fset: l.fset,
		Info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Uses:       make(map[*ast.Ident]types.Object),
			Defs:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		},
	}
	conf := types.Config{Importer: &moduleImporter{l: l}}
	tpkg, err := conf.Check(path, l.fset, files, pkg.Info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-check %s: %w", path, err)
	}
	pkg.Types = tpkg
	pkg.Files = files
	l.pkgs[path] = pkg
	return pkg, nil
}

// moduleImporter routes module-internal imports through the loader and
// everything else (the standard library) through the source importer.
type moduleImporter struct {
	l *Loader
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, m.l.ModRoot, 0)
}

func (m *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == m.l.ModPath || strings.HasPrefix(path, m.l.ModPath+"/") {
		pkg, err := m.l.loadPackage(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return m.l.std.ImportFrom(path, dir, mode)
}
