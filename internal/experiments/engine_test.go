package experiments_test

import (
	"testing"

	"sdme/internal/experiments"
)

// TestChaosEngineVerdictsAgree runs the same scenario values on both
// backends and requires the substrate-independent verdicts to agree: what
// the simulator claims about a story is what real sockets show.
func TestChaosEngineVerdictsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every story over real sockets")
	}
	seed := chaosSeed(11)
	type verdicts struct {
		repaired, verifyOK, converged bool // recovery
		resumed, diverted             bool // failover
		restartIdentical, restarted   bool // restart
		haIdentical, haResumed, stale bool // HA
	}
	got := make(map[string]verdicts)
	for _, on := range experiments.Backends {
		rec, err := experiments.Run(on, experiments.Recovery(seed))
		if err != nil {
			t.Fatalf("%v recovery: %v", on, err)
		}
		fo, err := experiments.Run(on, experiments.Failover(seed))
		if err != nil {
			t.Fatalf("%v failover: %v", on, err)
		}
		rs, err := experiments.RunRestart(on, seed)
		if err != nil {
			t.Fatalf("%v restart: %v", on, err)
		}
		ha, err := experiments.RunHA(on, experiments.HAConfig{Seed: seed})
		if err != nil {
			t.Fatalf("%v HA: %v", on, err)
		}
		if rec.Substrate != on.String() || ha.Substrate != on.String() {
			t.Errorf("results name substrate %q/%q, ran on %v", rec.Substrate, ha.Substrate, on)
		}
		got[on.String()] = verdicts{
			repaired: rec.Repairs > 0, verifyOK: rec.VerifyOK, converged: rec.Converged,
			resumed: fo.Resumed, diverted: fo.Failovers > 0 && fo.PushesDuring == 0 && fo.Repairs == 0,
			restartIdentical: rs.ExportIdentical, restarted: rs.Resumed && rs.Converged,
			haIdentical: ha.ExportIdentical, haResumed: ha.Resumed, stale: ha.StaleRejected,
		}
	}
	want := verdicts{true, true, true, true, true, true, true, true, true, true}
	for name, v := range got {
		if v != want {
			t.Errorf("%s verdicts %+v, want all true", name, v)
		}
	}
	if got["sim"] != got["live"] {
		t.Errorf("backends disagree:\n sim  %+v\n live %+v", got["sim"], got["live"])
	}
}
