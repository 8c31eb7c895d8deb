package experiments_test

import (
	"strings"
	"testing"

	"sdme/internal/experiments"
	"sdme/internal/faultinject"
)

// TestChaosSimHATakeover: kill the elected leader mid-history; a standby
// must win the next term, replay the replicated journal into a
// byte-identical plan, resume fenced epoch numbering, and refuse the
// dead leader's stale-term frames.
func TestChaosSimHATakeover(t *testing.T) {
	res, err := experiments.Run(experiments.Sim, experiments.Takeover(chaosSeed(7), 3, 1, 0))
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
func assertHAMetrics(t *testing.T, res *experiments.Result) {
	t.Helper()
	if res.Transitions < 2 || res.StreamedBytes <= 0 {
		t.Fatalf("HA metric families not fed: transitions_total %d (want >= 2), streamed_bytes_total %d (want > 0)",
			res.Transitions, res.StreamedBytes)
	}
}

// TestSimHADeterministic: the whole takeover history — election winners,
// terms, promotion times — is a function of the seed.
func TestSimHADeterministic(t *testing.T) {
	sc := experiments.Takeover(21, 3, 1, 0)
	a, err := experiments.Run(experiments.Sim, sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := experiments.Run(experiments.Sim, sc)
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
	c, err := experiments.Run(experiments.Sim, experiments.Takeover(22, 3, 1, 0))
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
	res, err := experiments.Run(experiments.Sim, experiments.Takeover(chaosSeed(13), 5, 2, 0))
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
	res, err := experiments.Run(experiments.Live, experiments.Takeover(chaosSeed(7), 3, 1, 0))
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

// TestSimHAReelectionDuringCommit: the second kill lands while the first
// successor is still waiting for the quorum to hold its epoch fence — a
// re-election between takeover and commit. The interrupted rollout is
// the deposition's doing, not a failure: the next leader's report redoes
// it, and the verdicts are read from whoever leads at the end.
func TestSimHAReelectionDuringCommit(t *testing.T) {
	const killUS = 200_000
	seed := chaosSeed(13)
	kills := func(atUS ...int64) experiments.Scenario {
		sc := experiments.Takeover(seed, 5, 0, 0)
		for _, at := range atUS {
			sc.Schedule.Events = append(sc.Schedule.Events, faultinject.Event{AtUS: at, Kind: faultinject.KindLeaderKill})
		}
		return sc
	}
	// One kill measures when its successor wins; the quorum wait that
	// follows takes at least one peer round trip (400us).
	one, err := experiments.Run(experiments.Sim, kills(killUS))
	if err != nil {
		t.Fatal(err)
	}
	res, err := experiments.Run(experiments.Sim, kills(killUS, killUS+one.TakeoverMaxUS+200))
	if err != nil {
		t.Fatalf("a re-election during the successor's commit failed the run: %v", err)
	}
	proms := strings.Split(strings.TrimSuffix(res.Trace, ";"), ";")
	if res.Kills != 2 || len(proms) < 3 || !strings.HasPrefix(res.Trace, one.Trace) {
		t.Fatalf("want the one-kill history %q, then a second kill and a third leader: kills=%d trace %q", one.Trace, res.Kills, res.Trace)
	}
	if !res.Resumed || !res.ExportIdentical || !res.StaleRejected {
		t.Fatalf("verdicts after the double kill: %+v", res)
	}
	if res.FinalTerm <= one.FinalTerm || res.FinalLeader == one.FinalLeader {
		t.Fatalf("final leader %d at term %d is the first successor (%d at %d): the second kill missed it",
			res.FinalLeader, res.FinalTerm, one.FinalLeader, one.FinalTerm)
	}
}
