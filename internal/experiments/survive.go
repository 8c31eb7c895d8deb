package experiments

// Controller survivability: the stories that kill or restart the
// controller (DESIGN §11), the history a successor must reproduce, and
// the tables they are reported in.

import (
	"bytes"
	"fmt"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/faultinject"
)

// Restart is the acceptance scenario for the write-ahead journal: the
// controller — and its management endpoint, under the agents it serves —
// is killed after a solve, a failure and a repair; the restarted one
// replays the journal, resumes the epoch sequence past the journal's
// high-water, rolls the restored plan out, and must export the identical
// plan.
func Restart(seed int64) Scenario {
	return Scenario{Seed: seed, Schedule: &faultinject.Schedule{Seed: seed, Events: []faultinject.Event{
		{AtUS: 10_000, Kind: faultinject.KindControllerRestart},
	}}}
}

// killGapUS is ten of the simulator's lease windows, three of the live
// runtime's: long enough for a rollout to settle on either.
const killGapUS = 200_000

// Takeover is the acceptance scenario for the replicated controller: a
// leader is elected among replicas — it journals every mutation and
// streams the frames to the standbys before a rollout counts as durable —
// rolls a plan out, and then `kills` consecutive leaders are taken out,
// gapUS apart (<= 0: killGapUS) with a quarter-gap jitter, so each kill
// lands at a seed-dependent phase of the lease cycle. Every successor must
// replay what replication delivered and export the identical plan, at
// fenced epochs past the old high-water, and the first leader's
// term-stamped output must be refused.
func Takeover(seed int64, replicas, kills int, gapUS int64) Scenario {
	if gapUS <= 0 {
		gapUS = killGapUS
	}
	s := &faultinject.Schedule{Seed: seed}
	for k := 1; k <= kills; k++ {
		s.Events = append(s.Events, faultinject.Event{
			AtUS: int64(k) * gapUS, JitterUS: gapUS / 4, Kind: faultinject.KindLeaderKill,
		})
	}
	return Scenario{Seed: seed, Replicas: replicas, Schedule: s}
}

// history is what the first leader does before its first rollout, so the
// journal holds state worth restoring: it solves the LB plan over a fixed
// synthetic measurement (journals the weights). A story without a
// workload has no dataplane to fail, so there a firewall is lost on paper:
// the rollout that follows finds it in the health view, journals the
// failed set and repairs around it (journals the re-solved weights).
func (c *control) history() error {
	var demands []enforce.FlowDemand
	for i := 0; i < 40; i++ {
		demands = append(demands, enforce.FlowDemand{Tuple: bedFlow(i), Packets: int64(100 + i)})
	}
	c.meas = controller.MeasurementsFromFlows(c.bed.Dep, c.bed.tbl, demands)
	c.down[c.bed.fw[0]] = c.sc.Flows == 0
	_, err := c.Pipe.Recompute(c.meas)
	return journaled(err)
}

// exportBytes renders a plane's plan as the configuration export of the
// node configurations derived from it, as indented JSON. Every export
// goes through this one path, so byte equality means state equality.
func exportBytes(p Plane) ([]byte, error) {
	var buf bytes.Buffer
	if err := p.Ctl.ExportConfig(p.Ctl.NodeConfigs(p.Pipe.Plan())).WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// SurvivabilityTable is results/failover.csv: failover and restart runs
// in one table, one row per backend per experiment; columns that do not
// apply to an experiment are left empty.
func SurvivabilityTable(fo, rs []Result) *Table {
	t := NewTable("experiment", "substrate", "seed", "injected", "delivered", "delivered_post_kill",
		"failovers", "invalidated", "pushes_during", "resumed",
		"records", "epoch_before", "epoch_after", "export_identical", "converged")
	for _, r := range fo {
		t.Add("failover", r.Substrate, r.Seed, r.Injected, r.Delivered, r.DeliveredPostFault,
			r.Failovers, r.Invalidated, r.PushesDuring, r.Resumed, "", "", "", "", "")
	}
	for _, r := range rs {
		t.Add("restart", r.Substrate, r.Seed, "", "", "", "", "", "", r.Resumed,
			r.Records, r.EpochBefore, r.EpochAfter, r.ExportIdentical, r.Converged)
	}
	return t
}

// HATable is results/ha.csv: one row per backend.
func HATable(rs []Result) *Table {
	t := NewTable("experiment", "substrate", "seed", "replicas", "kills",
		"first_leader", "first_term", "final_leader", "final_term", "takeover_max_us",
		"push_attempts", "push_failures", "epoch_before", "epoch_after", "records",
		"export_identical", "stale_rejected", "resumed", "converged", "redirects", "reconnects")
	for _, r := range rs {
		// Without agents there is nothing to converge: "n/a", not a false
		// "false".
		converged := "n/a"
		if r.Agents > 0 {
			converged = fmt.Sprint(r.Converged)
		}
		t.Add("ha", r.Substrate, r.Seed, r.Replicas, r.Kills,
			r.FirstLeader, r.FirstTerm, r.FinalLeader, r.FinalTerm, r.TakeoverMaxUS,
			r.PushAttempts, r.PushFailures, r.EpochBefore, r.EpochAfter, r.Records,
			r.ExportIdentical, r.StaleRejected, r.Resumed, converged, r.Redirects, r.Reconnects)
	}
	return t
}
