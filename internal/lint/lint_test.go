package lint_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"sdme/internal/lint"
)

// fixture is a throwaway module exercising the analyzers and the
// framework around them. Lines carrying a trailing `// want:a,b` marker
// must produce exactly one diagnostic per named analyzer; every other
// line must stay clean.
var fixture = map[string]string{
	"go.mod": "module fixture\n\ngo 1.24\n",

	// The module root package: conncheck positives next to an explicit
	// discard and a named suppression.
	"conn.go": `package fixture

import (
	"net"
	"os"
)

func Teardown(c net.Conn, f *os.File) {
	c.Close() // want:conncheck
	_ = f.Close()
	//vet:ignore conncheck -- read-only file, nothing to flush
	f.Close()
}
`,

	// A directory whose only file is excluded by its build constraint is
	// no package: the loader must not list it.
	"tools/gen.go": `//go:build ignore

package main

func main() {}
`,

	"internal/live/live.go": `package live

import (
	"net"
	"os"
	"sync"
	"time"
)

type Server struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	ch   chan int
	conn net.Conn
	wg   sync.WaitGroup
}

func (s *Server) Bad() {
	s.mu.Lock()
	s.ch <- 1 // want:lockedblocking
	<-s.ch    // want:lockedblocking
	s.wg.Wait()                  // want:lockedblocking
	time.Sleep(time.Millisecond) // want:lockedblocking
	s.mu.Unlock()
}

func (s *Server) BadConn(buf []byte) {
	s.rw.RLock()
	defer s.rw.RUnlock()
	s.conn.Write(buf) // want:lockedblocking,conncheck
}

func (s *Server) BadSelect() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want:lockedblocking
	case v := <-s.ch:
		_ = v
	}
}

func (s *Server) Good() int {
	s.mu.Lock()
	v := len(s.ch)
	s.mu.Unlock()
	s.ch <- v
	return v
}

func (s *Server) Branch(b bool) {
	s.mu.Lock()
	if b {
		s.mu.Unlock()
		s.ch <- 1
		return
	}
	s.mu.Unlock()
}

func (s *Server) SuppressedSend() {
	s.mu.Lock()
	defer s.mu.Unlock()
	//vet:ignore lockedblocking -- buffered command channel, never full
	s.ch <- 9
}

func (s *Server) CloseAll(f *os.File) {
	s.conn.Close() // want:conncheck
	_ = s.conn.Close()
	f.Close() // want:conncheck
}
`,
}

// expectation is one (file, line, analyzer) a marker demands.
type expectation struct {
	file     string
	line     int
	analyzer string
}

// writeModule writes files (relative path → source) into a fresh
// directory and returns it.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func wantedDiags(root string) map[expectation]int {
	out := make(map[expectation]int)
	for name, src := range fixture {
		abs := filepath.Join(root, filepath.FromSlash(name))
		for i, line := range strings.Split(src, "\n") {
			_, marker, ok := strings.Cut(line, "// want:")
			if !ok {
				continue
			}
			for _, a := range strings.Split(strings.TrimSpace(marker), ",") {
				out[expectation{abs, i + 1, strings.TrimSpace(a)}]++
			}
		}
	}
	return out
}

func TestAnalyzersOnFixtureModule(t *testing.T) {
	root := writeModule(t, fixture)
	loader, err := lint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	if loader.ModPath != "fixture" {
		t.Fatalf("ModPath = %q, want fixture", loader.ModPath)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, len(pkgs))
	for i, p := range pkgs {
		paths[i] = p.Path
	}
	sort.Strings(paths)
	wantPaths := []string{"fixture", "fixture/internal/live"}
	if fmt.Sprint(paths) != fmt.Sprint(wantPaths) {
		t.Fatalf("loaded %v, want %v", paths, wantPaths)
	}

	diags, err := lint.Run(pkgs, lint.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[expectation]int)
	for _, d := range diags {
		got[expectation{d.Pos.Filename, d.Pos.Line, d.Analyzer}]++
	}
	want := wantedDiags(root)
	for k, n := range want {
		if got[k] != n {
			t.Errorf("%s:%d: got %d %s diagnostic(s), want %d",
				k.file, k.line, got[k], k.analyzer, n)
		}
	}
	for k, n := range got {
		if want[k] == 0 {
			t.Errorf("%s:%d: unexpected %s diagnostic (×%d)", k.file, k.line, k.analyzer, n)
		}
	}
	if t.Failed() {
		for _, d := range diags {
			t.Logf("got: %s", d)
		}
	}
}

// TestRunSingleAnalyzer checks analyzer selection: run with one
// analyzer, only its findings survive, on a package where another
// analyzer would fire too.
func TestRunSingleAnalyzer(t *testing.T) {
	root := writeModule(t, fixture)
	loader, err := lint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./internal/live")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Run(pkgs, []*lint.Analyzer{lint.ConnCheck})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 3 {
		for _, d := range diags {
			t.Logf("got: %s", d)
		}
		t.Fatalf("got %d diagnostics, want 3", len(diags))
	}
	for _, d := range diags {
		if d.Analyzer != "conncheck" {
			t.Errorf("unexpected analyzer %q", d.Analyzer)
		}
	}
}

// TestVetIgnoreWildcard checks that `//vet:ignore *` suppresses every
// analyzer on the next line: here a dropped Write error (conncheck) made
// under a held mutex (lockedblocking).
func TestVetIgnoreWildcard(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module wild\n\ngo 1.24\n",
		"internal/live/l.go": `package live

import (
	"net"
	"sync"
)

var mu sync.Mutex

func W(c net.Conn, b []byte) {
	mu.Lock()
	defer mu.Unlock()
	//vet:ignore *
	c.Write(b)
}
`,
	})
	loader, err := lint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Run(pkgs, lint.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("suppressed line still reported: %s", d)
	}
}

// TestLoadRejectsTypeErrors: a package that does not type-check is a
// load error, not a partially typed package the analyzers would run on
// and silently under-report.
func TestLoadRejectsTypeErrors(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module broken\n\ngo 1.24\n",
		"a.go":   "package broken\n\ntype T int\n",
		"b.go":   "package broken\n\ntype T string\n",
	})
	loader, err := lint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err == nil || !strings.Contains(err.Error(), "T redeclared") {
		t.Fatalf("Load = %d package(s), %v; want a type-check error naming T", len(pkgs), err)
	}
}
