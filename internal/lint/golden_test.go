package lint_test

import (
	"go/build"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sdme/internal/lint"
)

// TestGoldenFixtures runs the full analyzer set over every fixture
// module under testdata/, through the production loader — the same code
// path cmd/sdme-vet takes. Each fixture line carrying a trailing
// `// want:a,b` marker must produce exactly one diagnostic per named
// analyzer, and no other line may produce any. One module per analyzer
// keeps positives and negatives reviewable side by side; the corpus is
// the regression suite for the dataflow engine (a CFG or call-summary
// bug shows up here as a missing or spurious marker). Markers count only
// in files built for the target platform, as the loader selects them.
func TestGoldenFixtures(t *testing.T) {
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join("testdata", e.Name())
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err != nil {
			continue
		}
		ran++
		t.Run(e.Name(), func(t *testing.T) {
			runGoldenModule(t, dir)
		})
	}
	if ran == 0 {
		t.Fatal("no fixture modules under testdata/")
	}
}

func runGoldenModule(t *testing.T, dir string) {
	loader, err := lint.NewLoader(dir)
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
	got := make(map[expectation]int)
	for _, d := range diags {
		got[expectation{d.Pos.Filename, d.Pos.Line, d.Analyzer}]++
	}
	want := goldenWant(t, dir)
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

// goldenWant collects the `// want:` markers from a fixture module's
// sources on disk that build for the target platform.
func goldenWant(t *testing.T, dir string) map[expectation]int {
	out := make(map[expectation]int)
	err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") {
			return err
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(p), d.Name()); err != nil || !ok {
			return err
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		abs, err := filepath.Abs(p)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(src), "\n") {
			_, marker, ok := strings.Cut(line, "// want:")
			if !ok {
				continue
			}
			for _, a := range strings.Split(strings.TrimSpace(marker), ",") {
				out[expectation{abs, i + 1, strings.TrimSpace(a)}]++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// BenchmarkVetRepo measures a full sdme-vet pass over this repository:
// load + type-check every module package, run all analyzers. CI asserts
// the wall-clock stays under its budget; the benchmark gives the number
// a local place to regress visibly first.
func BenchmarkVetRepo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		loader, err := lint.NewLoader("../..")
		if err != nil {
			b.Fatal(err)
		}
		pkgs, err := loader.Load("./...")
		if err != nil {
			b.Fatal(err)
		}
		diags, err := lint.Run(pkgs, lint.Analyzers())
		if err != nil {
			b.Fatal(err)
		}
		if len(diags) != 0 {
			for _, d := range diags {
				b.Logf("finding: %s", d)
			}
			b.Fatalf("repo tree has %d finding(s); the benchmark expects a clean tree", len(diags))
		}
	}
}
