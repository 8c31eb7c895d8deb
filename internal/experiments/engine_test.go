package experiments_test

import (
	"fmt"
	"strings"
	"testing"

	"sdme/internal/experiments"
	"sdme/internal/faultinject"
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
		// composite: both repairs, the second through the successor.
		bothRepaired, handedOver, compositeOK bool
	}
	got := make(map[string]verdicts)
	staleWhy := make(map[string]string) // what each backend's stale check saw, if not a refusal
	for _, on := range experiments.Backends {
		rec, err := experiments.Run(on, experiments.Recovery(seed))
		if err != nil {
			t.Fatalf("%v recovery: %v", on, err)
		}
		fo, err := experiments.Run(on, experiments.Failover(seed))
		if err != nil {
			t.Fatalf("%v failover: %v", on, err)
		}
		rs, err := experiments.Run(on, experiments.Restart(seed))
		if err != nil {
			t.Fatalf("%v restart: %v", on, err)
		}
		ha, err := experiments.Run(on, experiments.Takeover(seed, 3, 1, 0))
		if err != nil {
			t.Fatalf("%v HA: %v", on, err)
		}
		composite, err := experiments.Composite(seed)
		if err != nil {
			t.Fatal(err)
		}
		co, err := experiments.Run(on, composite)
		if err != nil {
			t.Fatalf("%v composite: %v", on, err)
		}
		if rec.Substrate != on.String() || ha.Substrate != on.String() {
			t.Errorf("results name substrate %q/%q, ran on %v", rec.Substrate, ha.Substrate, on)
		}
		got[on.String()] = verdicts{
			repaired: rec.Repairs > 0, verifyOK: rec.VerifyOK, converged: rec.Converged,
			resumed: fo.Resumed, diverted: fo.Failovers > 0 && fo.PushesDuring == 0 && fo.Repairs == 0,
			restartIdentical: rs.ExportIdentical, restarted: rs.Resumed && rs.Converged,
			haIdentical: ha.ExportIdentical, haResumed: ha.Resumed, stale: ha.StaleRejected,
			bothRepaired: co.Repairs >= 2 && co.Degraded == 0,
			handedOver:   co.FinalLeader != co.FirstLeader && co.RepairedUS > co.PromotedUS,
			compositeOK:  co.VerifyOK && co.Converged && co.ExportIdentical && co.StaleRejected && co.Resumed,
		}
		staleWhy[on.String()] = fmt.Sprintf("HA: %q, composite: %q", ha.StaleWhy, co.StaleWhy)
	}
	want := verdicts{true, true, true, true, true, true, true, true, true, true, true, true, true}
	for name, v := range got {
		if v != want {
			t.Errorf("%s verdicts %+v, want all true; stale check saw %s", name, v, staleWhy[name])
		}
	}
	if got["sim"] != got["live"] {
		t.Errorf("backends disagree:\n sim  %+v (stale check saw %s)\n live %+v (stale check saw %s)",
			got["sim"], staleWhy["sim"], got["live"], staleWhy["live"])
	}
}

// TestChaosHAComposite is the fold, proven: one scenario value with traffic,
// a middlebox crash, a leader kill and a second crash after the takeover
// means the same thing on both backends. The second repair must go through
// the successor's controller — the first leader's is dead — and the
// takeover must restore, byte for byte, the plan the first repair left.
func TestChaosHAComposite(t *testing.T) {
	sc, err := experiments.Composite(chaosSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	for _, on := range experiments.Backends {
		if on.String() == "live" && testing.Short() {
			continue
		}
		res, err := experiments.Run(on, sc)
		if err != nil {
			t.Fatalf("%v: %v", on, err)
		}
		if res.Kills != 1 || res.FinalLeader == res.FirstLeader || res.FinalTerm <= res.FirstTerm {
			t.Fatalf("%v: no takeover: %+v", on, res)
		}
		if res.Repairs < 2 || res.Degraded != 0 {
			t.Errorf("%v: repairs=%d degraded=%d, want both crashes repaired", on, res.Repairs, res.Degraded)
		}
		if res.RepairedUS <= res.PromotedUS {
			t.Errorf("%v: last repair at %dus, not after the successor won at %dus", on, res.RepairedUS, res.PromotedUS)
		}
		if !res.VerifyOK || !res.Converged {
			t.Errorf("%v: verifyOK=%v converged=%v", on, res.VerifyOK, res.Converged)
		}
		if !res.ExportIdentical {
			t.Errorf("%v: the successor restored a different plan than the first repair left", on)
		}
		if !res.StaleRejected {
			t.Errorf("%v: the dead leader's stale output was accepted: %s", on, res.StaleWhy)
		}
		if !res.Resumed {
			t.Errorf("%v: deliveries or epochs did not resume: %+v", on, res)
		}
		if on.String() != "sim" {
			continue
		}
		again, err := experiments.Run(on, sc)
		if err != nil {
			t.Fatal(err)
		}
		if *res != *again {
			t.Errorf("sim composite not deterministic:\n %+v\n %+v", res, again)
		}
	}
}

// TestChaosScheduleOutsideBedRefused: a schedule is input; one that names a
// node the bed does not have is an error naming the event, on both
// backends, before anything is built (on live it used to reach a nil
// device from the schedule driver's goroutine).
func TestChaosScheduleOutsideBedRefused(t *testing.T) {
	for _, text := range []string{"5ms crash 9999", "5ms wedge 9999", "5ms conn-drop 9999"} {
		sc := experiments.Recovery(11)
		sc.Schedule = faultinject.MustParse(text)
		for _, on := range experiments.Backends {
			_, err := experiments.Run(on, sc)
			if err == nil || !strings.Contains(err.Error(), strings.Fields(text)[1]+" ") || !strings.Contains(err.Error(), "9999") {
				t.Errorf("%v, %q: err = %v, want one naming the event", on, text, err)
			}
		}
	}
}
