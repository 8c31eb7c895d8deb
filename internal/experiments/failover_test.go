package experiments_test

import (
	"os"
	"strconv"
	"strings"
	"testing"

	"sdme/internal/experiments"
)

// chaosSeed returns the experiment seed, overridable via SDME_CHAOS_SEED
// so `make chaos` can sweep a seed matrix over the same assertions.
func chaosSeed(def int64) int64 {
	if s := os.Getenv("SDME_CHAOS_SEED"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			return v
		}
	}
	return def
}

// TestChaosSimFailoverZeroRoundTrips: the primary firewall dies with no
// controller reaction scheduled; delivery must resume purely through the
// pre-installed backup candidates, with the dataplane recording both the
// diversions and the purge of pinned soft state.
func TestChaosSimFailoverZeroRoundTrips(t *testing.T) {
	res, err := experiments.Run(experiments.Sim, experiments.Failover(chaosSeed(11)))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resumed {
		t.Fatalf("delivery did not resume after the kill: %+v", res)
	}
	if res.Failovers == 0 {
		t.Error("no failovers recorded — backups never engaged")
	}
	if res.Invalidated == 0 {
		t.Error("no pinned entries purged — stale soft state survived the kill")
	}
	if res.DeliveredPostFault <= res.DeliveredPreFault/10 {
		t.Errorf("post-kill delivery collapsed: pre=%d post=%d", res.DeliveredPreFault, res.DeliveredPostFault)
	}
	if res.PushesDuring != 0 {
		t.Errorf("sim substrate has no mgmt channel but counted %d pushes", res.PushesDuring)
	}
	if res.Repairs != 0 {
		t.Errorf("a liveness-only scenario ran %d repairs", res.Repairs)
	}
}

// TestChaosSimFailoverDeterministic: same seed → identical counters.
func TestChaosSimFailoverDeterministic(t *testing.T) {
	a, err := experiments.Run(experiments.Sim, experiments.Failover(chaosSeed(7)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := experiments.Run(experiments.Sim, experiments.Failover(chaosSeed(7)))
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Errorf("same seed diverged:\n%+v\n%+v", a, b)
	}
}

// TestChaosLiveFailoverZeroRoundTrips: the same scenario over real
// sockets. The health monitor feeds the liveness view; the management
// push counters must be FLAT across the failover window — that is the
// zero-controller-round-trip acceptance claim.
func TestChaosLiveFailoverZeroRoundTrips(t *testing.T) {
	if testing.Short() {
		t.Skip("live failover run in short mode")
	}
	res, err := experiments.Run(experiments.Live, experiments.Failover(chaosSeed(11)))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resumed {
		t.Fatalf("delivery did not resume after the kill: %+v", res)
	}
	if res.Failovers == 0 {
		t.Error("no failovers recorded — liveness view never diverted selection")
	}
	if res.PushesDuring != 0 {
		t.Errorf("mgmt pushed %d times during the failover window, want 0", res.PushesDuring)
	}
}

// TestChaosSimRestartByteIdenticalPlan: kill the controller after a
// solve and a failure, replay the journal into a fresh controller, and
// require the byte-identical exported plan.
func TestChaosSimRestartByteIdenticalPlan(t *testing.T) {
	res, err := experiments.Run(experiments.Sim, experiments.Restart(chaosSeed(11)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Torn {
		t.Error("clean kill left a torn journal tail")
	}
	if res.Records < 3 {
		t.Errorf("journal replayed %d records, want >= 3 (deploy, weights, failed)", res.Records)
	}
	if !res.ExportIdentical {
		t.Fatal("restarted controller exported a different plan")
	}
}

// TestChaosLiveRestartResumesEpoch: kill controller AND server under
// live agents; the restarted pair must resume past the journaled epoch,
// reconverge every agent, and export the identical plan.
func TestChaosLiveRestartResumesEpoch(t *testing.T) {
	if testing.Short() {
		t.Skip("live restart run in short mode")
	}
	res, err := experiments.Run(experiments.Live, experiments.Restart(chaosSeed(11)))
	if err != nil {
		t.Fatal(err)
	}
	if !res.ExportIdentical {
		t.Fatal("restarted controller exported a different plan")
	}
	if res.EpochBefore == 0 {
		t.Error("journal recorded no epoch before the kill")
	}
	if !res.Resumed {
		t.Errorf("restart did not resume the epoch sequence: %d -> %d", res.EpochBefore, res.EpochAfter)
	}
	if !res.Converged {
		t.Error("agents did not converge on the restarted controller's plan")
	}
	if res.Reconnects == 0 {
		t.Error("no agent reconnected — the kill never severed the channel")
	}
}

func TestSurvivabilityRenderers(t *testing.T) {
	fo := []experiments.Result{{
		Substrate: "sim", Seed: 1,
		Totals:            experiments.Totals{Injected: 100, Delivered: 90, Failovers: 3, Invalidated: 2},
		DeliveredPreFault: 40, DeliveredPostFault: 50, Resumed: true,
	}}
	rs := []experiments.Result{{
		Substrate: "live", Seed: 1, Records: 5,
		EpochBefore: 3, EpochAfter: 4,
		ExportIdentical: true, Resumed: true, Converged: true,
	}}
	tbl := experiments.SurvivabilityTable(fo, rs)
	var csv strings.Builder
	if err := tbl.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d, want header + 2 rows:\n%s", len(lines), csv.String())
	}
	if lines[1] != "failover,sim,1,100,90,50,3,2,0,true,,,,," || lines[2] != "restart,live,1,,,,,,,true,5,3,4,true,true" {
		t.Errorf("rows wrong:\n%s", csv.String())
	}
	wantCols := strings.Count(lines[0], ",")
	for i, l := range lines[1:] {
		if strings.Count(l, ",") != wantCols {
			t.Errorf("row %d has ragged columns: %s", i, l)
		}
	}
	md := tbl.Markdown()
	if !strings.Contains(md, "| failover | sim |") || !strings.Contains(md, "| 3 | 4 | true | true |") {
		t.Errorf("markdown missing rows:\n%s", md)
	}
}
