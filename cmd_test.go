package sdme_test

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCmdSmoke drives each binary the way an operator would: build it,
// run it with real flags, require exit 0 and the line that says the run
// did what was asked.
func TestCmdSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binaries")
	}
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin+"/", "./cmd/sdme-sim", "./cmd/sdme-live", "./cmd/sdme-topo", "./cmd/sdme-results").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"sdme-sim", "-packet-level", "-traffic", "2000", "-kill-at", "5000"}, "soft-state entries purged after FW1 died"},
		{[]string{"sdme-sim", "-controllers", "3"}, "| ha | sim | 20 | 3 | 1 |"},
		{[]string{"sdme-live", "-packets", "3"}, "matches static plan across 3 packets: true"},
		{[]string{"sdme-live", "-peers", "3"}, "| ha | live | 20 | 3 | 1 |"},
		{[]string{"sdme-topo", "-topology", "campus", "-verify"}, "ok: 32 nodes, 3 policies, no violations"},
		{[]string{"sdme-results", "-quick"}, "markdown -> results/EXPERIMENTS.generated.md"},
	} {
		tc := tc
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			t.Parallel()
			cmd := exec.Command(filepath.Join(bin, tc.args[0]), tc.args[1:]...)
			cmd.Dir = t.TempDir() // sdme-results writes ./results
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("%v\n%s", err, out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Errorf("output lacks %q:\n%s", tc.want, out)
			}
		})
	}
}
