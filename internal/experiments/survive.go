package experiments

// Controller survivability stories, each written once for both backends:
// RunRestart (a journaled controller is killed and restarted) and RunHA
// (DESIGN §11: a replica group loses its leader).

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/faultinject"
)

// solveThenFail is the history a restarted or promoted controller must
// reproduce: solve the LB plan over a fixed synthetic measurement
// (journals the weights), lose a firewall (journals the failed set),
// repair (journals the re-solved weights).
func (b *faultBed) solveThenFail(p Plane) error {
	var demands []enforce.FlowDemand
	for i := 0; i < 40; i++ {
		demands = append(demands, enforce.FlowDemand{Tuple: bedFlow(i), Packets: int64(100 + i)})
	}
	meas := controller.MeasurementsFromFlows(b.Dep, b.tbl, demands)
	if _, err := p.Pipe.Recompute(meas); err != nil {
		return err
	}
	if err := p.Ctl.MarkFailed(b.fw[0], true); err != nil {
		return err
	}
	p.Pipe.NodeChanged(b.fw[0])
	_, err := p.Pipe.Recompute(meas)
	return err
}

// exportBytes renders a plane's plan as the configuration export of a
// fresh build from it, as indented JSON. Every export goes through this
// one path, so byte equality means state equality.
func exportBytes(p Plane) ([]byte, error) {
	nodes, err := p.Ctl.BuildNodesFromPlan(p.Pipe.Plan())
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := p.Ctl.ExportConfig(nodes).WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// RestartResult reports one backend's kill/restart run.
type RestartResult struct {
	Substrate string
	Seed      int64
	// Records counts intact journal records replayed; Torn reports a
	// truncated tail (none expected in a clean kill).
	Records int
	Torn    bool
	// EpochBefore is the epoch high-water the journal recorded before the
	// kill; EpochAfter is the epoch the restarted controller's rollout
	// landed on. Both stay zero without a management channel.
	EpochBefore, EpochAfter uint64
	// ExportIdentical: the restarted controller's exported plan is
	// byte-identical to the pre-kill export.
	ExportIdentical bool
	// Resumed: the restart picked up where the journal left off — the same
	// plan, and the next epoch rather than a reused or regressed one.
	Resumed bool
	// Converged: every agent acked the restarted controller's epoch.
	Converged bool
	// Reconnects counts agent re-dials to the restarted endpoint.
	Reconnects int64
}

// RunRestart kills the controller — and its management endpoint, under
// the agents it serves — after a solve, a failure and a repair; the
// restarted one replays the journal, resumes the epoch sequence past the
// journal's high-water, rolls the restored plan out, and must export the
// identical plan.
func RunRestart(on Backend, seed int64) (*RestartResult, error) {
	dir, err := os.MkdirTemp("", "sdme-journal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir) //nolint:errcheck // best-effort temp cleanup
	path := filepath.Join(dir, on.name+".wal")
	bed, err := newFaultBed(seed, enforce.LoadBalanced)
	if err != nil {
		return nil, err
	}
	sub, err := on.newSubstrate(bed.Site)
	if err != nil {
		return nil, err
	}
	defer sub.Close()

	// The journal is attached before the history, so the weight plans and
	// the failed set are recorded.
	if _, err := bed.Ctl.AttachJournal(path); err != nil {
		return nil, err
	}
	err = bed.solveThenFail(bed.Plane)
	if err == nil {
		err = sub.Rollout(bed.Plane, nil)
	}
	if err != nil {
		return nil, fmt.Errorf("experiments: pre-kill history: %w", err)
	}
	before, err := exportBytes(bed.Plane)
	if err != nil {
		return nil, err
	}
	// The kill: no state survives but the file.
	if err := bed.Ctl.Journal().Close(); err != nil {
		return nil, err
	}

	ctl := bed.newController()
	st, err := ctl.AttachJournal(path)
	if err != nil {
		return nil, err
	}
	defer ctl.Journal().Close() //nolint:errcheck // best-effort on the result path
	if err := sub.RestartController(st.Epoch); err != nil {
		return nil, err
	}
	// The restored pipeline starts from the journaled plan; the restarted
	// endpoint holds no base, so the plan goes out whole, at the next epoch.
	restored := Plane{Ctl: ctl, Pipe: ctl.NewPipeline(controller.PipelineOptions{})}
	if err := sub.Rollout(restored, nil); err != nil {
		return nil, fmt.Errorf("experiments: post-restart rollout: %w", err)
	}
	after, err := exportBytes(restored)
	if err != nil {
		return nil, err
	}
	t := sub.Totals()
	res := &RestartResult{
		Substrate: on.name, Seed: seed,
		Records: st.Records, Torn: st.Torn,
		EpochBefore: st.Epoch, EpochAfter: t.Epoch,
		ExportIdentical: bytes.Equal(before, after),
		Converged:       t.InSync,
		Reconnects:      t.Reconnects,
	}
	res.Resumed = res.ExportIdentical && (res.EpochBefore == 0 || res.EpochAfter > res.EpochBefore)
	return res, nil
}

// SurvivabilityTable is results/failover.csv: failover and restart runs
// in one table, one row per backend per experiment; columns that do not
// apply to an experiment are left empty.
func SurvivabilityTable(fo []FaultResult, rs []RestartResult) *Table {
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

// HAConfig parameterizes the replicated-controller story.
type HAConfig struct {
	Seed int64
	// Replicas is the group size (default 3; use 5 to survive 2 kills).
	Replicas int
	// Kills is how many consecutive leaders are taken out (default 1; must
	// stay below the quorum margin).
	Kills int
	// KillGapUS is the spacing between consecutive leader kills, measured
	// from the post-rollout settle point (default 10 lease windows). The
	// sdme-sim -kill-leader-at flag lands here.
	KillGapUS int64

	leaseUS int64 // the backend's election lease
}

func (c *HAConfig) fill(on Backend) {
	c.leaseUS = on.leaseUS
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.Kills <= 0 {
		c.Kills = 1
	}
	if c.KillGapUS <= 0 {
		c.KillGapUS = 10 * c.leaseUS
	}
}

// killSchedule spaces the leader kills KillGapUS apart with a quarter-gap
// jitter, so each lands at a seed-dependent phase of the lease cycle.
func (c *HAConfig) killSchedule() *faultinject.Schedule {
	s := &faultinject.Schedule{Seed: c.Seed}
	for k := 0; k < c.Kills; k++ {
		s.Events = append(s.Events, faultinject.Event{
			AtUS:     int64(k+1) * c.KillGapUS,
			JitterUS: c.KillGapUS / 4,
			Kind:     faultinject.KindLeaderKill,
		})
	}
	return s
}

// HAResult is one backend's takeover story.
type HAResult struct {
	Substrate string
	Seed      int64
	Replicas  int
	Kills     int
	// FirstLeader/FirstTerm identify the initial election's winner.
	FirstLeader int
	FirstTerm   uint64
	// FinalLeader/FinalTerm identify the last takeover's winner.
	FinalLeader int
	FinalTerm   uint64
	// TakeoverMaxUS is the worst kill→promotion latency observed.
	TakeoverMaxUS int64
	// PushAttempts/PushFailures are the availability prober's counters;
	// failures are ticks with no live leader (or a mid-depose one).
	PushAttempts, PushFailures int64
	// EpochBefore is the epoch fenced under the first leader's term;
	// EpochAfter the last one fenced under the final term.
	EpochBefore, EpochAfter uint64
	// Records is the journal record count the final takeover replayed.
	Records int
	// ExportIdentical: every takeover's restored controller exported the
	// byte-identical plan the first leader computed.
	ExportIdentical bool
	// StaleRejected: the deposed leader's term-stamped output was refused
	// (a standby's frame fence without a management channel; the server's
	// self-gate AND an agent's fence with one).
	StaleRejected bool
	// Resumed: epoch numbering continued past the old high-water mark.
	Resumed bool
	// GroupTotals: the promotion trace (on virtual time: same seed, same
	// trace) and the managed fleet's re-homing effort.
	GroupTotals
}

// haHarness holds the promoted controller the group's elections hand
// over. The promotion hooks fire inside engine events on virtual time and
// on elector timer goroutines on wall time, so every access takes mu.
type haHarness struct {
	bed *faultBed

	mu  sync.Mutex
	cur *leader // nil while no promoted controller is live
	err error
}

// promote rebuilds the controller from the replayed journal: the first
// leader starts fresh (an empty journal has no fingerprint to check),
// every later one restores and must reproduce the plan.
func (h *haHarness) promote(id int, st *controller.JournalState, j *controller.Journal, term uint64) error {
	ctl := h.bed.newController()
	err := ctl.ResumeJournal(st, j)
	h.mu.Lock()
	defer h.mu.Unlock()
	if err != nil {
		h.err = fmt.Errorf("experiments: takeover at replica %d: %w", id, err)
		return h.err
	}
	h.cur = &leader{
		Plane: Plane{Ctl: ctl, Pipe: ctl.NewPipeline(controller.PipelineOptions{})},
		id:    id, term: term, j: j, st: st,
	}
	return nil
}

func (h *haHarness) demote(id int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.cur != nil && h.cur.id == id {
		h.cur = nil
	}
}

// leader snapshots the promoted controller (nil while leaderless) or the
// error a promotion hit.
func (h *haHarness) leader() (*leader, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.cur, h.err
}

// RunHA elects a leader among cfg.Replicas — the leader journals every
// mutation and streams the frames to the standbys before a rollout counts
// as durable — rolls a plan out through it, then takes out cfg.Kills
// consecutive leaders. It measures takeover latency (kill to the next
// promotion) and plan-push availability (a prober attempts one journaled
// push per tick through whichever replica leads; ticks in the leaderless
// window fail), and verifies state fidelity (every successor replays what
// replication delivered and exports the identical plan, at fenced epochs
// past the old high-water) and fencing (the dead leader's term-stamped
// output is refused).
func RunHA(on Backend, cfg HAConfig) (*HAResult, error) {
	cfg.fill(on)
	dir, err := os.MkdirTemp("", "sdme-ha-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir) //nolint:errcheck // best-effort temp cleanup
	bed, err := newFaultBed(cfg.Seed, enforce.LoadBalanced)
	if err != nil {
		return nil, err
	}
	h := &haHarness{bed: bed}
	g, err := on.newGroup(bed.Site, cfg, dir, h.promote, h.demote)
	if err != nil {
		return nil, err
	}
	defer g.Close()
	res := &HAResult{Substrate: on.name, Seed: cfg.Seed, Replicas: cfg.Replicas, Kills: cfg.Kills, ExportIdentical: true}
	limit := int64(cfg.Kills+2)*cfg.KillGapUS + 100*cfg.leaseUS

	// elected waits for a leader at minTerm or later and the controller
	// its promotion built.
	elected := func(minTerm uint64) (*leader, int64, error) {
		id, _, atUS := g.AwaitLeader(limit, minTerm)
		l, err := h.leader()
		switch {
		case err != nil:
			return nil, 0, err
		case id < 0 || l == nil || l.id != id:
			return nil, 0, fmt.Errorf("experiments: no leader at term >= %d within %dus", minTerm, limit)
		}
		return l, atUS, nil
	}

	first, _, err := elected(1)
	if err != nil {
		return nil, err
	}
	res.FirstLeader, res.FirstTerm = first.id, first.term

	// The rollout under the first term: the history, then the commit.
	if err := bed.solveThenFail(first.Plane); err != nil {
		return nil, err
	}
	if res.EpochBefore, err = g.Commit(first, limit); err != nil {
		return nil, fmt.Errorf("experiments: first rollout: %w", err)
	}
	before, err := exportBytes(first.Plane)
	if err != nil {
		return nil, err
	}

	// The availability prober; only it writes the two counters until
	// stopProbe returns.
	stopProbe := g.Every(cfg.leaseUS/4, func() {
		res.PushAttempts++
		if l, _ := h.leader(); l == nil || !g.Probe(l) {
			res.PushFailures++
		}
	})
	defer stopProbe()

	// The kill script: walk the resolved (jittered) kill times, verifying
	// a full takeover after each.
	base, prevTerm := g.NowUS(), first.term
	for _, ev := range cfg.killSchedule().Resolve() {
		at := base + ev.AtUS
		g.Sleep(at - g.NowUS())
		// Mid-election already? The takeover clock starts once there is a
		// leader to kill.
		victim, _, err := elected(prevTerm)
		if err != nil {
			return nil, fmt.Errorf("experiments: no leader to kill: %w", err)
		}
		h.demote(victim.id)
		// The kill's nominal instant is the schedule's, even when no event
		// happened to land exactly there.
		killUS := at
		if now := g.NowUS(); now > killUS {
			killUS = now
		}
		g.Kill(victim.id)

		next, atUS, err := elected(victim.term + 1)
		if err != nil {
			return nil, fmt.Errorf("experiments: no takeover after killing replica %d: %w", victim.id, err)
		}
		if lat := atUS - killUS; lat > res.TakeoverMaxUS {
			res.TakeoverMaxUS = lat
		}
		res.FinalLeader, res.FinalTerm, res.Records = next.id, next.term, next.st.Records

		// The restored plan must be byte-identical to the first leader's;
		// then epoch numbering resumes, fenced, past the replayed high-water.
		after, err := exportBytes(next.Plane)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(before, after) {
			res.ExportIdentical = false
		}
		if res.EpochAfter, err = g.Commit(next, limit); err != nil {
			return nil, fmt.Errorf("experiments: post-takeover rollout: %w", err)
		}
		prevTerm = next.term
	}
	stopProbe()
	res.Resumed = res.EpochAfter > res.EpochBefore

	if res.StaleRejected, err = g.StaleRefused(res.FirstLeader, res.FirstTerm); err != nil {
		return nil, err
	}
	res.GroupTotals = g.Totals()
	return res, nil
}

// HATable is results/ha.csv: one row per backend.
func HATable(rs []HAResult) *Table {
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
