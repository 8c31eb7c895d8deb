package experiments_test

import (
	"strings"
	"testing"

	"sdme/internal/experiments"
)

// TestChaosSimRecoveryConverges runs the acceptance fault schedule on
// the simulator: crash two middleboxes, wedge a third, drop a proxy's
// management connection. The controller must repair the plan without
// manual intervention, the repaired plan must verify, and the outage
// must be visible (packets blackholed) yet bounded (traffic resumes).
func TestChaosSimRecoveryConverges(t *testing.T) {
	res, err := experiments.Run(experiments.Sim, experiments.Recovery(11))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("sim did not converge: %+v", res)
	}
	if !res.VerifyOK {
		t.Error("repaired plan fails verification")
	}
	if res.Repairs < 2 {
		t.Errorf("Repairs = %d, want >= 2 (two crashes + wedge cycle)", res.Repairs)
	}
	if res.Degraded != 0 {
		t.Errorf("Degraded = %d, schedule keeps every function covered", res.Degraded)
	}
	if res.DroppedDown == 0 {
		t.Error("no packets dropped during the outage — faults had no effect")
	}
	if res.Delivered == 0 {
		t.Error("nothing delivered — recovery never took effect")
	}
	if res.Injected != int64(40*200) {
		t.Errorf("Injected = %d, want %d", res.Injected, 40*200)
	}
	if res.ConvergeUS <= 0 {
		t.Errorf("ConvergeUS = %d, want > 0", res.ConvergeUS)
	}
}

// TestChaosSimRecoveryDeterministic: same seed, same schedule → byte-identical
// metrics. The whole point of driving faults through the discrete-event
// engine is that chaos runs are replayable.
func TestChaosSimRecoveryDeterministic(t *testing.T) {
	a, err := experiments.Run(experiments.Sim, experiments.Recovery(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := experiments.Run(experiments.Sim, experiments.Recovery(7))
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Errorf("sim recovery not deterministic:\n  a = %+v\n  b = %+v", a, b)
	}
}

// TestChaosLiveRecoveryConverges is the live half of the acceptance
// scenario: real UDP dataplane, real TCP management channel. After the
// schedule (two crashes, a conn-drop, a wedge/unwedge cycle) every
// surviving agent must be reconnected with the latest epoch acked, and
// the repaired plan must pass verification — no manual intervention.
func TestChaosLiveRecoveryConverges(t *testing.T) {
	res, err := experiments.Run(experiments.Live, experiments.Recovery(11))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("live runtime did not converge: %+v", res)
	}
	if !res.VerifyOK {
		t.Error("repaired plan fails verification")
	}
	if res.Repairs == 0 {
		t.Error("no repairs completed")
	}
	if res.Reconnects == 0 {
		t.Error("conn-drop never forced a reconnect")
	}
	if res.Epoch == 0 {
		t.Error("no epochs assigned — nothing was pushed")
	}
	if res.Delivered == 0 {
		t.Error("nothing delivered after recovery")
	}
}

func TestRecoveryRenderers(t *testing.T) {
	tbl := experiments.RecoveryTable([]experiments.Result{
		{Substrate: "sim", Seed: 1, Totals: experiments.Totals{Injected: 100, Delivered: 90, DroppedDown: 10},
			ConvergeUS: 20500, Repairs: 3, VerifyOK: true, Converged: true},
		{Substrate: "live", Seed: 1, Totals: experiments.Totals{Injected: 80, Delivered: 70, DroppedDown: 10, Reconnects: 1, Epoch: 42},
			ConvergeUS: 31000, Repairs: 3, VerifyOK: true, Converged: true},
	})
	var csv strings.Builder
	if err := tbl.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	got := csv.String()
	if !strings.HasPrefix(got, "substrate,seed,") {
		t.Errorf("csv header missing: %q", got)
	}
	if !strings.Contains(got, "\nsim,1,100,90,10,20500,3,0,0,0,true,true\n") {
		t.Errorf("sim row wrong:\n%s", got)
	}
	if lines := strings.Count(got, "\n"); lines != 3 {
		t.Errorf("csv line count = %d, want 3", lines)
	}
	md := tbl.Markdown()
	for _, want := range []string{"| substrate | seed |", "| sim |", "| live |", "| 20500 |", "| 42 |"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}
