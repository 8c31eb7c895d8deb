package experiments_test

import (
	"strings"
	"testing"

	"sdme/internal/experiments"
)

// TestChaosSimHATakeover: kill the elected leader mid-history; a standby
// must win the next term, replay the replicated journal into a
// byte-identical plan, resume fenced epoch numbering, and refuse the
// dead leader's stale-term frames.
func TestChaosSimHATakeover(t *testing.T) {
	res, err := experiments.RunHA(experiments.Sim, experiments.HAConfig{Seed: chaosSeed(7)})
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstLeader < 0 || res.FinalLeader < 0 {
		t.Fatalf("missing leaders: %+v", res)
	}
	if res.FinalTerm <= res.FirstTerm {
		t.Fatalf("takeover term %d not past first term %d", res.FinalTerm, res.FirstTerm)
	}
	if res.FinalLeader == res.FirstLeader {
		t.Fatalf("dead leader %d won its own succession", res.FirstLeader)
	}
	if res.TakeoverMaxUS <= 0 {
		t.Fatalf("takeover latency %dus", res.TakeoverMaxUS)
	}
	if !res.ExportIdentical {
		t.Fatal("takeover export differs from the pre-kill plan")
	}
	if !res.Resumed {
		t.Fatalf("epochs did not resume: %d -> %d", res.EpochBefore, res.EpochAfter)
	}
	if !res.StaleRejected {
		t.Fatal("a standby accepted the dead leader's stale-term frame")
	}
	if res.PushAttempts == 0 || res.PushFailures == 0 {
		t.Fatalf("availability prober saw attempts=%d failures=%d; the takeover window should cost some pushes",
			res.PushAttempts, res.PushFailures)
	}
	if res.PushFailures >= res.PushAttempts {
		t.Fatalf("no push ever succeeded (%d/%d)", res.PushFailures, res.PushAttempts)
	}
	assertHAMetrics(t, res)
}

// assertHAMetrics: a takeover run must show in the group's registry — at
// least the two wins as role transitions, and journal bytes streamed.
func assertHAMetrics(t *testing.T, res *experiments.HAResult) {
	t.Helper()
	if res.Transitions < 2 || res.StreamedBytes <= 0 {
		t.Fatalf("HA metric families not fed: transitions_total %d (want >= 2), streamed_bytes_total %d (want > 0)",
			res.Transitions, res.StreamedBytes)
	}
}

// TestSimHADeterministic: the whole takeover history — election winners,
// terms, promotion times — is a function of the seed.
func TestSimHADeterministic(t *testing.T) {
	cfg := experiments.HAConfig{Seed: 21}
	a, err := experiments.RunHA(experiments.Sim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := experiments.RunHA(experiments.Sim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Trace != b.Trace {
		t.Fatalf("same seed, different takeover traces:\n%s\n%s", a.Trace, b.Trace)
	}
	// Golden: the seed's history is part of the repository's "same
	// behaviour" contract, like the sim rows of results/ha.csv.
	const golden = "0@1@22599;2@2@296105;"
	if a.Trace != golden {
		t.Fatalf("seed 21 trace %q, want %q", a.Trace, golden)
	}
	if a.TakeoverMaxUS != b.TakeoverMaxUS || a.PushAttempts != b.PushAttempts || a.PushFailures != b.PushFailures {
		t.Fatalf("same seed, different measurements: %+v vs %+v", a, b)
	}
	c, err := experiments.RunHA(experiments.Sim, experiments.HAConfig{Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	if c.Trace == a.Trace {
		t.Fatalf("different seeds, identical trace %s", a.Trace)
	}
}

// TestSimHARepeatedKills: five replicas survive two consecutive leader
// assassinations, each successor still exporting the identical plan.
func TestSimHARepeatedKills(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-kill HA run is not short")
	}
	res, err := experiments.RunHA(experiments.Sim, experiments.HAConfig{Seed: chaosSeed(13), Replicas: 5, Kills: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(res.Trace, ";"); got < 3 {
		t.Fatalf("expected at least 3 promotions (first + 2 takeovers), trace %q", res.Trace)
	}
	if !res.ExportIdentical || !res.StaleRejected || !res.Resumed {
		t.Fatalf("multi-kill run degraded: %+v", res)
	}
}

// TestChaosLiveHATakeover: the live variant over real sockets — leader
// partitioned away, standby takes over, agents re-home via rotation and
// NotLeader redirects, and both term fences hold.
func TestChaosLiveHATakeover(t *testing.T) {
	if testing.Short() {
		t.Skip("live HA run is not short")
	}
	res, err := experiments.RunHA(experiments.Live, experiments.HAConfig{Seed: chaosSeed(7)})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalLeader == res.FirstLeader || res.FinalTerm <= res.FirstTerm {
		t.Fatalf("no real takeover: %+v", res)
	}
	if !res.ExportIdentical {
		t.Fatal("live takeover export differs from the pre-kill plan")
	}
	if !res.Resumed {
		t.Fatalf("live epochs did not resume: %d -> %d", res.EpochBefore, res.EpochAfter)
	}
	if !res.Converged {
		t.Fatal("fleet did not converge on the new leader's plan")
	}
	if !res.StaleRejected {
		t.Fatal("a stale-term push was not refused end to end")
	}
	if res.Reconnects == 0 {
		t.Fatal("no agent ever reconnected; the kill did not bite")
	}
	assertHAMetrics(t, res)
}
