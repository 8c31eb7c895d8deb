package sdme_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCmdSmoke drives each binary the way an operator would: build it,
// run it with real flags, require exit 0 and the line that says the run
// did what was asked — or, for a flag outside its mode, exit 1 and the
// line naming it.
func TestCmdSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binaries")
	}
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin+"/", "./cmd/sdme-sim", "./cmd/sdme-live", "./cmd/sdme-topo", "./cmd/sdme-results").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	// run runs one binary in dir and requires exit 0 (exit 1 when refused)
	// and every want in its output.
	run := func(t *testing.T, dir string, refused bool, args []string, want ...string) {
		t.Helper()
		cmd := exec.Command(filepath.Join(bin, args[0]), args[1:]...)
		cmd.Dir = dir // sdme-results writes ./results
		out, err := cmd.CombinedOutput()
		if code := cmd.ProcessState.ExitCode(); refused && code != 1 || !refused && err != nil {
			t.Fatalf("exit %d (%v)\n%s", code, err, out)
		}
		for _, w := range want {
			if !strings.Contains(string(out), w) {
				t.Errorf("output lacks %q:\n%s", w, out)
			}
		}
	}
	for _, tc := range []struct {
		args    []string
		want    string
		refused bool
	}{
		{[]string{"sdme-sim", "-packet-level", "-traffic", "2000", "-kill-at", "5000"}, "soft-state entries purged after FW1 died", false},
		{[]string{"sdme-sim", "-controllers", "3"}, "| ha | sim | 20 | 3 | 1 |", false},
		{[]string{"sdme-sim", "-packet-level", "-trace", "1:2:80"}, "sdme-sim: -trace requires", true},
		{[]string{"sdme-sim", "-labels"}, "sdme-sim: -labels requires -packet-level", true},
		{[]string{"sdme-sim", "-kill-leaders", "2"}, "sdme-sim: -kill-leaders requires -controllers > 1", true},
		{[]string{"sdme-sim", "-controllers", "3", "-packet-level", "-labels", "-metrics", "-", "-kill-at", "5000", "-trace", "1:2:80"}, "sdme-sim: -kill-at does not apply with -controllers > 1", true},
		{[]string{"sdme-live", "-packets", "3"}, "matches static plan across 3 packets: true", false},
		{[]string{"sdme-live", "-packets", "1000"}, "sink received 1000 packets", false},
		{[]string{"sdme-live", "-peers", "3"}, "| ha | live | 20 | 3 | 1 |", false},
		{[]string{"sdme-topo", "-topology", "campus", "-verify"}, "ok: 32 nodes, 3 policies, no violations", false},
		{[]string{"sdme-topo", "-topology", "campus", "-audit"}, "audit: all", false},
		{[]string{"sdme-topo", "-topology", "campus", "-observe"}, "all runtime traces match the static plans", false},
		{[]string{"sdme-results", "-quick"}, "markdown -> results/EXPERIMENTS.generated.md", false},
	} {
		tc := tc
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			t.Parallel()
			run(t, t.TempDir(), tc.refused, tc.args, tc.want)
		})
	}
	// A restart replays the journal the first run left and still rolls the
	// whole plan out to a fresh fleet.
	t.Run("sdme-live -packets 3 -journal j.wal twice", func(t *testing.T) {
		t.Parallel()
		dir, args := t.TempDir(), []string{"sdme-live", "-packets", "3", "-journal", "j.wal"}
		run(t, dir, false, args, "matches static plan across 3 packets: true")
		run(t, dir, false, args, "journal: replayed", "matches static plan across 3 packets: true")
	})
	t.Run("sdme-sim -packet-level -traffic 2000 -journal j.wal twice", func(t *testing.T) {
		t.Parallel()
		dir, args := t.TempDir(), []string{"sdme-sim", "-packet-level", "-traffic", "2000", "-journal", "j.wal"}
		run(t, dir, false, args, "simulation: injected=")
		run(t, dir, false, args, "journal: replayed", "simulation: injected=")
	})
	t.Run("sdme-topo -export e.json", func(t *testing.T) {
		t.Parallel()
		dir := t.TempDir()
		run(t, dir, false, []string{"sdme-topo", "-topology", "campus", "-export", "e.json"}, "configuration exported to e.json")
		b, err := os.ReadFile(filepath.Join(dir, "e.json"))
		if err != nil {
			t.Fatal(err)
		}
		var export struct {
			Topology struct{ Nodes int }
			Nodes    []json.RawMessage
		}
		if err := json.Unmarshal(b, &export); err != nil {
			t.Fatal(err)
		}
		if export.Topology.Nodes != 60 || len(export.Nodes) != 32 {
			t.Errorf("export lists %d topology nodes and %d configured ones, want 60 and 32", export.Topology.Nodes, len(export.Nodes))
		}
	})
}
