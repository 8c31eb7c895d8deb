package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/faultinject"
	"sdme/internal/live"
	"sdme/internal/mgmt"
	"sdme/internal/sim"
	"sdme/internal/topo"
)

// Replicated-controller HA experiment (DESIGN §11). A group of N
// controller replicas runs lease-based leader election; the leader
// journals every mutation and streams the frames to the standbys before
// a rollout is considered durable. The experiment kills the leader
// mid-history (repeatedly, on the sim substrate) and measures:
//
//   - takeover latency — leader kill to the next replica's promotion;
//   - plan-push availability — a prober attempts one journaled plan push
//     per tick through whichever replica currently leads; ticks landing
//     in the leaderless window fail, so availability = 1 − failed/attempts;
//   - state fidelity — the new leader replays the journal replication
//     delivered and must export a byte-identical weight plan;
//   - fencing — a resurrected stale leader's output (a journal frame on
//     the sim substrate, a plan push on the live one) is refused by term.
//
// The sim variant runs the whole history on virtual time, so the same
// seed yields the same promotion trace; the live variant adds the
// management channel: real agents re-home from the dead leader's server
// to the new one via address rotation and NotLeader redirects.

// HAConfig parameterizes both substrates.
type HAConfig struct {
	Seed int64
	// Replicas is the group size (default 3; use 5 to survive 2 kills).
	Replicas int
	// Kills is how many consecutive leaders the sim variant assassinates
	// (default 1; must stay below the quorum margin). The live variant
	// always partitions exactly one leader — wall-clock kills are covered
	// by the chaos matrix instead.
	Kills int
	// LeaseUS is the election lease (default 20ms sim, 60ms live).
	LeaseUS int64
	// KillGapUS is the spacing between consecutive leader kills, measured
	// from the post-rollout settle point (default 10 lease windows). The
	// sdme-sim -kill-leader-at flag lands here.
	KillGapUS int64
	// ProbeGapUS is the availability prober's tick (default LeaseUS/4).
	ProbeGapUS int64
	// Schedule optionally overrides the sim kill script; only
	// KindLeaderKill events are honored. Nil derives one from Seed with
	// jittered kill times, so different seeds kill at different phases of
	// the lease cycle.
	Schedule *faultinject.Schedule
}

func (c *HAConfig) fill(substrate string) {
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.Kills <= 0 {
		c.Kills = 1
	}
	if c.LeaseUS <= 0 {
		if substrate == "sim" {
			c.LeaseUS = 20_000
		} else {
			c.LeaseUS = 60_000
		}
	}
	if c.KillGapUS <= 0 {
		c.KillGapUS = 10 * c.LeaseUS
	}
	if c.ProbeGapUS <= 0 {
		c.ProbeGapUS = c.LeaseUS / 4
	}
}

// HAResult is one substrate's takeover story.
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
	// TakeoverMaxUS is the worst kill→promotion latency observed
	// (virtual µs sim, wall µs live).
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
	// (standby frame fence on sim; server self-gate AND agent fence live).
	StaleRejected bool
	// Resumed: epoch numbering continued past the old high-water mark.
	Resumed bool
	// Converged (live): every agent acked the final leader's last epoch.
	Converged bool
	// Redirects/Reconnects (live): agent re-homing effort.
	Redirects, Reconnects int64
	// Trace is the promotion history "id@term@tUS;..." — same seed, same
	// trace on the sim substrate.
	Trace string
}

// traceOf renders a promotion history.
func traceOf(ps []sim.Promotion) string {
	var b strings.Builder
	for _, p := range ps {
		fmt.Fprintf(&b, "%d@%d@%d;", p.ID, p.Term, p.AtUS)
	}
	return b.String()
}

// defaultKillSchedule spaces cfg.Kills leaderkill events KillGapUS apart
// with a quarter-gap jitter, so the kill lands at a seed-dependent phase
// of the lease cycle.
func defaultKillSchedule(cfg HAConfig) *faultinject.Schedule {
	s := &faultinject.Schedule{Seed: cfg.Seed}
	for k := 0; k < cfg.Kills; k++ {
		s.Events = append(s.Events, faultinject.Event{
			AtUS:     int64(k+1) * cfg.KillGapUS,
			JitterUS: cfg.KillGapUS / 4,
			Kind:     faultinject.KindLeaderKill,
		})
	}
	return s
}

// simHAHarness is the sim leader-side state the promotion hook swaps on
// every takeover. The engine is single-threaded, so no locking.
type simHAHarness struct {
	bed  *recoveryBed
	seed int64

	leader int // -1 while no promoted controller is live
	term   uint64
	ctl    *controller.Controller
	pipe   *controller.Pipeline // starts from the replayed plan on takeover
	j      *controller.Journal
	st     *controller.JournalState
	err    error

	nextEpoch uint64
}

// onPromote rebuilds the controller from the replayed journal: the first
// leader starts fresh (an empty journal has no fingerprint to check),
// every later one restores and must reproduce the plan.
func (h *simHAHarness) onPromote(id int, st *controller.JournalState, j *controller.Journal, term uint64) {
	ctl := controller.New(h.bed.dep, h.bed.ap, h.bed.tbl, restartOpts(h.seed))
	if st.Records > 0 {
		if err := ctl.RestoreFromJournal(st); err != nil {
			h.err = fmt.Errorf("experiments: takeover restore at replica %d: %w", id, err)
			return
		}
	}
	if err := ctl.SetJournal(j); err != nil {
		h.err = fmt.Errorf("experiments: takeover journal attach at replica %d: %w", id, err)
		return
	}
	h.leader, h.term, h.ctl, h.j, h.st = id, term, ctl, j, st
	h.pipe = ctl.NewPipeline(controller.PipelineOptions{})
	if st.Epoch > h.nextEpoch {
		h.nextEpoch = st.Epoch
	}
}

// RunSimHA elects a leader among N replicas on virtual time, rolls a
// plan out through its journal, then assassinates cfg.Kills consecutive
// leaders and verifies every successor replays a byte-identical plan,
// resumes fenced epoch numbering, and refuses the dead leader's frames.
func RunSimHA(cfg HAConfig) (*HAResult, error) {
	cfg.fill("sim")
	dir, err := os.MkdirTemp("", "sdme-ha-sim-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir) //nolint:errcheck // best-effort temp cleanup
	bed, err := newRestartBed(cfg.Seed)
	if err != nil {
		return nil, err
	}

	eng := sim.NewEngine()
	h := &simHAHarness{bed: bed, seed: cfg.Seed, leader: -1}
	group, err := sim.NewControllerGroup(eng, sim.ControllerGroupConfig{
		N:         cfg.Replicas,
		Dir:       dir,
		LeaseUS:   cfg.LeaseUS,
		Seed:      cfg.Seed,
		OnPromote: h.onPromote,
		OnDemote: func(id int, term uint64) {
			if h.leader == id {
				h.leader, h.j, h.ctl = -1, nil, nil
			}
		},
	})
	if err != nil {
		return nil, err
	}
	defer group.Close()

	res := &HAResult{Substrate: "sim", Seed: cfg.Seed, Replicas: cfg.Replicas, Kills: cfg.Kills}
	limit := int64(cfg.Kills+2)*cfg.KillGapUS + 100*cfg.LeaseUS

	// First election.
	id0, term0, _ := group.RunUntilLeader(limit, 1)
	if id0 < 0 {
		return nil, fmt.Errorf("experiments: no leader within %dus", limit)
	}
	if h.err != nil {
		return nil, h.err
	}
	res.FirstLeader, res.FirstTerm = id0, term0

	// The rollout: solve (journals weights), fail a middlebox (journals
	// the failed set), repair, fence an epoch under the leader's term —
	// then wait until a quorum of replicas holds the whole journal before
	// treating the plan as durable (stream-before-ack).
	if err := solveThenFail(bed, h.ctl, h.pipe); err != nil {
		return nil, err
	}
	h.nextEpoch++
	if err := h.j.LogEpoch(h.nextEpoch, term0); err != nil {
		return nil, err
	}
	res.EpochBefore = h.nextEpoch
	if !simWaitQuorum(eng, group, h, limit) {
		return nil, fmt.Errorf("experiments: journal never reached quorum")
	}
	before, err := exportBytes(h.ctl, h.pipe.Plan())
	if err != nil {
		return nil, err
	}

	// Availability prober: one journaled "plan push" per tick against
	// whichever replica currently leads. Ticks inside a leaderless window
	// fail; the ratio is the control plane's availability.
	probeEnd := eng.Now() + int64(cfg.Kills+1)*cfg.KillGapUS
	var probe func()
	probe = func() {
		if eng.Now() > probeEnd {
			return
		}
		res.PushAttempts++
		if h.leader < 0 || h.j == nil {
			res.PushFailures++
		} else {
			h.nextEpoch++
			if err := h.j.LogEpoch(h.nextEpoch, h.term); err != nil {
				res.PushFailures++
			}
		}
		eng.After(cfg.ProbeGapUS, probe)
	}
	eng.After(cfg.ProbeGapUS, probe)

	// The kill script: resolve the (jittered) leaderkill times and walk
	// them, verifying a full takeover after each.
	sched := cfg.Schedule
	if sched == nil {
		sched = defaultKillSchedule(cfg)
	}
	base := eng.Now()
	res.ExportIdentical = true
	prevTerm := term0
	for _, ev := range sched.Resolve() {
		if ev.Kind != faultinject.KindLeaderKill {
			continue
		}
		at := base + ev.AtUS
		if at > eng.Now() {
			eng.Run(at)
		}
		victim, vterm := group.Leader()
		if victim < 0 {
			// Mid-election already; the takeover clock starts now anyway.
			victim, vterm, _ = group.RunUntilLeader(limit, prevTerm)
			if victim < 0 {
				return nil, fmt.Errorf("experiments: no leader to kill")
			}
		}
		h.leader, h.j, h.ctl = -1, nil, nil
		// The kill's nominal instant is the schedule's, even when no event
		// happened to land exactly there (Run leaves the clock at the last
		// processed event).
		killUS := at
		if now := eng.Now(); now > killUS {
			killUS = now
		}
		group.Kill(victim)

		id1, term1, atUS := group.RunUntilLeader(killUS+limit, vterm+1)
		if id1 < 0 {
			return nil, fmt.Errorf("experiments: no takeover after killing replica %d", victim)
		}
		if h.err != nil {
			return nil, h.err
		}
		if lat := atUS - killUS; lat > res.TakeoverMaxUS {
			res.TakeoverMaxUS = lat
		}
		res.FinalLeader, res.FinalTerm = id1, term1
		res.Records = h.st.Records

		// The restored plan must be byte-identical to the first leader's.
		after, err := exportBytes(h.ctl, h.pipe.Plan())
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(before, after) {
			res.ExportIdentical = false
		}
		// Resume fenced epoch numbering past the replayed high-water.
		h.nextEpoch++
		if err := h.j.LogEpoch(h.nextEpoch, term1); err != nil {
			return nil, err
		}
		res.EpochAfter = h.nextEpoch
		if !simWaitQuorum(eng, group, h, limit) {
			return nil, fmt.Errorf("experiments: post-takeover journal never reached quorum")
		}
		prevTerm = term1
	}
	res.Resumed = res.EpochAfter > res.EpochBefore

	// Fencing: replay a frame carrying the FIRST leader's term at exactly
	// the offset a standby would otherwise append at. Only the term fence
	// can refuse it — and must.
	res.StaleRejected, err = simStaleFrameRejected(dir, group, res.FirstLeader, res.FirstTerm)
	if err != nil {
		return nil, err
	}

	res.Trace = traceOf(group.Promotions())
	return res, nil
}

// simWaitQuorum advances virtual time until a quorum of replicas holds
// the leader's whole journal (false if the limit passes first).
func simWaitQuorum(eng *sim.Engine, group *sim.ControllerGroup, h *simHAHarness, limitUS int64) bool {
	// Cursor-stepped like RunUntilLeader: Run only advances the clock to
	// the last processed event.
	cursor := eng.Now()
	deadline := cursor + limitUS
	for cursor < deadline {
		if h.leader < 0 || h.j == nil {
			return false
		}
		repl := group.Replica(h.leader).Replicator()
		if repl != nil && repl.QuorumBytes() >= h.j.Size() {
			return true
		}
		cursor += 500
		eng.Run(cursor)
	}
	return false
}

// simStaleFrameRejected delivers a well-formed journal frame stamped
// with a deposed leader's term to a live standby and reports whether the
// standby's journal stayed untouched.
func simStaleFrameRejected(dir string, group *sim.ControllerGroup, oldLeader int, oldTerm uint64) (bool, error) {
	sb := -1
	curLeader, _ := group.Leader()
	for i := 0; i < group.N(); i++ {
		if group.Alive(i) && i != curLeader {
			sb = i
			break
		}
	}
	if sb < 0 {
		return false, fmt.Errorf("experiments: no live standby for the stale-frame check")
	}
	// Fresh, CRC-valid frame bytes from a scratch journal: everything
	// about the frame is legitimate except the term it rode in under.
	scratch := filepath.Join(dir, "stale-scratch.wal")
	sj, err := controller.OpenJournal(scratch)
	if err != nil {
		return false, err
	}
	if err := sj.LogEpoch(999_999, oldTerm); err != nil {
		return false, err
	}
	frames, err := sj.ReadChunk(0, 1<<20)
	if err != nil {
		return false, err
	}
	if err := sj.Close(); err != nil {
		return false, err
	}
	standby := group.Replica(sb)
	bytesBefore := standby.JournalBytes()
	data, err := json.Marshal(mgmt.JournalFrame{
		Leader: oldLeader,
		Term:   oldTerm,
		Offset: bytesBefore,
		Frames: frames,
	})
	if err != nil {
		return false, err
	}
	standby.Deliver(&mgmt.Envelope{T: mgmt.TypeJournalFrame, Data: data})
	return standby.JournalBytes() == bytesBefore, nil
}

// liveHAHarness guards the live substrate's current-leader state; the
// promotion hooks fire on elector timer goroutines.
type liveHAHarness struct {
	bed  *recoveryBed
	seed int64

	mu      sync.Mutex
	leader  int
	term    uint64
	ctl     *controller.Controller
	pipe    *controller.Pipeline
	j       *controller.Journal
	st      *controller.JournalState
	servers []*mgmt.Server
	reps    []*controller.HAReplica
	promUS  []int64 // promotion wall times, appended in order
	err     error

	clock controller.WallClock
}

func (h *liveHAHarness) onPromote(id int, st *controller.JournalState, j *controller.Journal, term uint64) {
	ctl := controller.New(h.bed.dep, h.bed.ap, h.bed.tbl, restartOpts(h.seed))
	if st.Records > 0 {
		if err := ctl.RestoreFromJournal(st); err != nil {
			h.mu.Lock()
			h.err = fmt.Errorf("experiments: live takeover restore at replica %d: %w", id, err)
			h.mu.Unlock()
			return
		}
	}
	if err := ctl.SetJournal(j); err != nil {
		h.mu.Lock()
		h.err = fmt.Errorf("experiments: live takeover journal attach at replica %d: %w", id, err)
		h.mu.Unlock()
		return
	}
	h.mu.Lock()
	h.leader, h.term, h.ctl, h.j, h.st = id, term, ctl, j, st
	h.pipe = ctl.NewPipeline(controller.PipelineOptions{})
	h.promUS = append(h.promUS, h.clock.NowUS())
	srv := h.servers[id]
	addr := srv.Addr()
	// The server resumes epoch numbering past the replayed high-water and
	// opens its gate under the new term; every other server bounces
	// agents toward it.
	srv.ResumeEpoch(st.Epoch)
	srv.SetLeader(term)
	for k, other := range h.servers {
		if k != id {
			other.SetNotLeader(addr)
		}
	}
	h.mu.Unlock()
}

func (h *liveHAHarness) onDemote(id int, term uint64) {
	h.mu.Lock()
	if h.leader == id {
		h.leader, h.ctl, h.j = -1, nil, nil
	}
	srv := h.servers[id]
	h.mu.Unlock()
	// The deposed leader gates itself shut and sheds its agents — they
	// re-home to the new leader through rotation and redirects.
	srv.SetNotLeader("")
	srv.DropAllConns()
}

// current snapshots the promoted leader's push surface (nil when
// leaderless).
func (h *liveHAHarness) current() (srv *mgmt.Server, j *controller.Journal, ctl *controller.Controller, pipe *controller.Pipeline, term uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.leader < 0 {
		return nil, nil, nil, nil, 0
	}
	return h.servers[h.leader], h.j, h.ctl, h.pipe, h.term
}

// RunLiveHA runs three controller replicas over real sockets — a peer
// bus each, a management server each — with live agents configured with
// every replica's address. It partitions the leader away from its
// peers, waits for the self-deposition + takeover, and verifies the
// agents re-home, the restored plan matches byte for byte, and both
// term fences (the deposed server's self-gate, the agents' stale-term
// refusal) hold.
func RunLiveHA(cfg HAConfig) (*HAResult, error) {
	cfg.fill("live")
	dir, err := os.MkdirTemp("", "sdme-ha-live-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir) //nolint:errcheck // best-effort temp cleanup
	bed, err := newRestartBed(cfg.Seed)
	if err != nil {
		return nil, err
	}
	res := &HAResult{Substrate: "live", Seed: cfg.Seed, Replicas: cfg.Replicas, Kills: 1}

	h := &liveHAHarness{bed: bed, seed: cfg.Seed, leader: -1}

	// Servers first (their addresses seed the agents), all gated shut
	// until a replica claims one by winning an election.
	for i := 0; i < cfg.Replicas; i++ {
		srv, err := mgmt.NewServer("127.0.0.1:0", nil)
		if err != nil {
			return nil, err
		}
		h.servers = append(h.servers, srv)
		srv.SetNotLeader("")
	}
	defer func() {
		for _, s := range h.servers {
			s.Close()
		}
	}()

	// Peer buses + replicas. The bus delivers into the replica slot via
	// the harness so a bus racing its replica's construction drops cleanly.
	buses := make([]*mgmt.PeerBus, cfg.Replicas)
	for i := 0; i < cfg.Replicas; i++ {
		i := i
		bus, err := mgmt.NewPeerBus(i, "127.0.0.1:0", func(env *mgmt.Envelope) {
			h.mu.Lock()
			var rep *controller.HAReplica
			if i < len(h.reps) {
				rep = h.reps[i]
			}
			h.mu.Unlock()
			if rep != nil {
				rep.Deliver(env)
			}
		})
		if err != nil {
			return nil, err
		}
		buses[i] = bus
	}
	defer func() {
		for _, b := range buses {
			if b != nil {
				b.Close()
			}
		}
	}()
	addrs := make(map[int]string, cfg.Replicas)
	for i, b := range buses {
		addrs[i] = b.Addr()
	}
	for _, b := range buses {
		b.SetPeers(addrs)
	}
	for i := 0; i < cfg.Replicas; i++ {
		peers := make([]int, 0, cfg.Replicas-1)
		for p := 0; p < cfg.Replicas; p++ {
			if p != i {
				peers = append(peers, p)
			}
		}
		id := i
		rep, err := controller.NewHAReplica(controller.HAReplicaConfig{
			ID:          i,
			Peers:       peers,
			JournalPath: filepath.Join(dir, fmt.Sprintf("replica-%d.wal", i)),
			Transport:   buses[i],
			LeaseUS:     cfg.LeaseUS,
			Seed:        cfg.Seed*1009 + int64(i) + 1,
			OnPromote: func(st *controller.JournalState, j *controller.Journal, term uint64) {
				h.onPromote(id, st, j, term)
			},
			OnDemote: func(term uint64) { h.onDemote(id, term) },
		})
		if err != nil {
			return nil, err
		}
		h.mu.Lock()
		h.reps = append(h.reps, rep)
		h.mu.Unlock()
	}
	defer func() {
		h.mu.Lock()
		reps := append([]*controller.HAReplica(nil), h.reps...)
		h.mu.Unlock()
		for _, r := range reps {
			r.Stop()
		}
	}()
	for _, r := range h.reps {
		r.Start()
	}

	// First election.
	if !live.WaitUntil(10*time.Second, func() bool {
		h.mu.Lock()
		defer h.mu.Unlock()
		return h.leader >= 0 || h.err != nil
	}) {
		return nil, fmt.Errorf("experiments: live group elected no leader")
	}
	h.mu.Lock()
	res.FirstLeader, res.FirstTerm = h.leader, h.term
	firstErr := h.err
	h.mu.Unlock()
	if firstErr != nil {
		return nil, firstErr
	}

	// Dataplane devices + agents. Every agent knows every replica's
	// server address; the gated standbys bounce it to the leader.
	rt := live.NewRuntime()
	defer rt.Close()
	devices := make(map[topo.NodeID]*live.Device, len(bed.nodes))
	var nodeIDs []topo.NodeID
	for id, n := range bed.nodes {
		dev, err := rt.AddDevice(n)
		if err != nil {
			return nil, err
		}
		devices[id] = dev
		nodeIDs = append(nodeIDs, id)
	}
	nodeIDs = topo.SortedIDs(nodeIDs)
	serverAddrs := make([]string, len(h.servers))
	for i, s := range h.servers {
		serverAddrs[i] = s.Addr()
	}
	agents := make(map[topo.NodeID]*mgmt.Agent, len(nodeIDs))
	defer func() {
		for _, a := range agents {
			a.Close()
		}
	}()
	for _, id := range nodeIDs {
		agent, err := mgmt.NewAgentWith(devices[id], serverAddrs[res.FirstLeader], mgmt.AgentOptions{
			Addrs:         serverAddrs,
			BackoffMin:    5 * time.Millisecond,
			BackoffMax:    100 * time.Millisecond,
			HealthyPeriod: 250 * time.Millisecond,
		})
		if err != nil {
			return nil, err
		}
		agents[id] = agent
	}
	leaderSrv := h.servers[res.FirstLeader]
	if !leaderSrv.WaitConnected(10*time.Second, nodeIDs...) {
		return nil, fmt.Errorf("experiments: agents did not reach the leader: %v", leaderSrv.Connected())
	}

	// The rollout under the first term: solve, fail a middlebox, repair,
	// fence an epoch in the journal, wait for replication quorum, THEN
	// roll the plan out.
	pushPol := mgmt.RetryPolicy{Attempts: 4, PerAttempt: 2 * time.Second, Backoff: 25 * time.Millisecond}
	_, j0, ctl0, pipe0, term0 := h.current()
	if ctl0 == nil {
		return nil, fmt.Errorf("experiments: leader lost before the rollout")
	}
	if err := solveThenFail(bed, ctl0, pipe0); err != nil {
		return nil, err
	}
	epoch0 := leaderSrv.Epoch() + 1
	if err := j0.LogEpoch(epoch0, term0); err != nil {
		return nil, err
	}
	repl0 := h.reps[res.FirstLeader].Replicator()
	if repl0 == nil {
		return nil, fmt.Errorf("experiments: leader has no replicator")
	}
	if err := repl0.WaitQuorum(j0.Size(), 5*time.Second); err != nil {
		return nil, fmt.Errorf("experiments: pre-push quorum: %w", err)
	}
	if err := rolloutPlan(leaderSrv, ctl0, pipe0, pushPol); err != nil {
		return nil, fmt.Errorf("experiments: initial rollout: %w", err)
	}
	res.EpochBefore = leaderSrv.Epoch()
	before, err := exportBytes(ctl0, pipe0.Plan())
	if err != nil {
		return nil, err
	}

	// Availability prober: journaled one-node rollouts through whichever
	// replica currently leads, until stopped. The batch is an empty delta
	// for one node — an epoch heartbeat through the full prepare/commit
	// path; a server that holds no base for the node yet (the new leader
	// before its takeover rollout) stages the fallback instead.
	probeNode := nodeIDs[0]
	probe := map[topo.NodeID]enforce.ConfigDelta{probeNode: {}}
	planNodes, err := ctl0.BuildNodesFromPlan(pipe0.Plan())
	if err != nil {
		return nil, err
	}
	probeFallback := map[topo.NodeID]mgmt.ConfigDTO{probeNode: mgmt.ConfigToDTO(0, planNodes[probeNode].Config())}
	stopProbe := make(chan struct{})
	var probeWG sync.WaitGroup
	probeWG.Add(1)
	go func() {
		defer probeWG.Done()
		for {
			select {
			case <-stopProbe:
				return
			default:
			}
			srv, j, _, _, term := h.current()
			ok := false
			if srv != nil && j != nil && j.LogEpoch(srv.Epoch()+1, term) == nil {
				_, err := srv.PushAllDelta2PC(probe, probeFallback, mgmt.RetryPolicy{Attempts: 1, PerAttempt: 250 * time.Millisecond})
				ok = err == nil
			}
			h.mu.Lock()
			res.PushAttempts++
			if !ok {
				res.PushFailures++
			}
			h.mu.Unlock()
			time.Sleep(time.Duration(cfg.ProbeGapUS) * time.Microsecond)
		}
	}()

	// The "kill": partition the leader from its peers by closing its bus.
	// It still believes it leads — until its lease starves and it deposes
	// itself — which is exactly the split-brain window the fences close.
	oldLeader := res.FirstLeader
	killUS := h.clock.NowUS()
	promBefore := len(h.promUS)
	buses[oldLeader].Close()
	buses[oldLeader] = nil

	if !live.WaitUntil(15*time.Second, func() bool {
		h.mu.Lock()
		defer h.mu.Unlock()
		return (h.leader >= 0 && h.leader != oldLeader && len(h.promUS) > promBefore) || h.err != nil
	}) {
		return nil, fmt.Errorf("experiments: no live takeover after partitioning replica %d", oldLeader)
	}
	h.mu.Lock()
	res.FinalLeader, res.FinalTerm = h.leader, h.term
	res.TakeoverMaxUS = h.promUS[len(h.promUS)-1] - killUS
	newSrv := h.servers[h.leader]
	st1, ctl1, pipe1, j1 := h.st, h.ctl, h.pipe, h.j
	takeErr := h.err
	h.mu.Unlock()
	if takeErr != nil {
		return nil, takeErr
	}
	res.Records = st1.Records

	// Fence 1: the deposed leader's own server refuses to push — its
	// OnDemote gate closed before any agent could hear its stale term.
	staleLocal := live.WaitUntil(10*time.Second, func() bool {
		_, err := h.servers[oldLeader].PushAllDelta2PC(probe, probeFallback, mgmt.RetryPolicy{Attempts: 1, PerAttempt: 100 * time.Millisecond})
		return errors.Is(err, mgmt.ErrNotLeader)
	})

	// Agents re-home: the old server dropped them; rotation plus the
	// standbys' NotLeader bounces land them on the new leader.
	if !newSrv.WaitConnected(15*time.Second, nodeIDs...) {
		return nil, fmt.Errorf("experiments: agents did not re-home: %v", newSrv.Connected())
	}

	// Stop the prober before the convergence-bearing final rollout so its
	// background epochs cannot race the 2PC accounting.
	close(stopProbe)
	probeWG.Wait()

	// The takeover rollout under the new term: the pipeline restored from
	// the replayed journal, resumed epochs, a fresh rollout through the
	// re-homed agents.
	epoch1 := newSrv.Epoch() + 1
	if err := j1.LogEpoch(epoch1, res.FinalTerm); err != nil {
		return nil, err
	}
	repl1 := h.reps[res.FinalLeader].Replicator()
	if repl1 == nil {
		return nil, fmt.Errorf("experiments: new leader has no replicator")
	}
	if err := repl1.WaitQuorum(j1.Size(), 5*time.Second); err != nil {
		return nil, fmt.Errorf("experiments: post-takeover quorum: %w", err)
	}
	if err := rolloutPlan(newSrv, ctl1, pipe1, pushPol); err != nil {
		return nil, fmt.Errorf("experiments: post-takeover rollout: %w", err)
	}
	res.EpochAfter = newSrv.Epoch()
	res.Resumed = res.EpochAfter > res.EpochBefore
	res.Converged = newSrv.Converged(nodeIDs...)

	after, err := exportBytes(ctl1, pipe1.Plan())
	if err != nil {
		return nil, err
	}
	res.ExportIdentical = bytes.Equal(before, after)

	// Fence 2: the deposed leader comes back as a zombie — its gate
	// reopened at its dead term — and the probe node's agent is steered
	// onto it by a redirect. The plan the zombie rolls out reaches a live
	// agent over a real connection, and the agent must refuse it. (Last:
	// it takes the new leader's server out of service.)
	zombie := h.servers[oldLeader]
	zombie.SetLeader(res.FirstTerm)
	newSrv.SetNotLeader(zombie.Addr())
	newSrv.DropConn(probeNode)
	staleAgent := false
	if zombie.WaitConnected(10*time.Second, probeNode) {
		_, err = zombie.PushAllDelta2PC(probe, probeFallback, pushPol)
		var refused *mgmt.RefusedError
		staleAgent = errors.As(err, &refused) && strings.Contains(refused.Reason, "stale term")
	}
	res.StaleRejected = staleLocal && staleAgent

	for _, a := range agents {
		st := a.Stats()
		res.Redirects += st.Redirects
		res.Reconnects += st.Reconnects
	}
	return res, nil
}

// RunHAExperiments runs the replicated-controller story on both
// substrates.
func RunHAExperiments(cfg HAConfig) ([]HAResult, error) {
	simRes, err := RunSimHA(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: sim ha: %w", err)
	}
	liveRes, err := RunLiveHA(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: live ha: %w", err)
	}
	return []HAResult{*simRes, *liveRes}, nil
}

// convergedCell renders Converged for the tables: the sim substrate has
// no agents to converge, so it says "n/a" rather than a false "false".
func (r *HAResult) convergedCell() string {
	if r.Substrate == "sim" {
		return "n/a"
	}
	return fmt.Sprintf("%t", r.Converged)
}

// WriteHACSV emits results/ha.csv, one row per substrate.
func WriteHACSV(w io.Writer, rs []HAResult) error {
	if _, err := fmt.Fprintln(w, "experiment,substrate,seed,replicas,kills,first_leader,first_term,final_leader,final_term,takeover_max_us,push_attempts,push_failures,epoch_before,epoch_after,records,export_identical,stale_rejected,resumed,converged,redirects,reconnects"); err != nil {
		return err
	}
	for _, r := range rs {
		if _, err := fmt.Fprintf(w, "ha,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%t,%t,%t,%s,%d,%d\n",
			r.Substrate, r.Seed, r.Replicas, r.Kills,
			r.FirstLeader, r.FirstTerm, r.FinalLeader, r.FinalTerm,
			r.TakeoverMaxUS, r.PushAttempts, r.PushFailures,
			r.EpochBefore, r.EpochAfter, r.Records,
			r.ExportIdentical, r.StaleRejected, r.Resumed, r.convergedCell(),
			r.Redirects, r.Reconnects); err != nil {
			return err
		}
	}
	return nil
}

// HAMarkdown renders the HA results as a table.
func HAMarkdown(rs []HAResult) string {
	var b strings.Builder
	b.WriteString("| substrate | replicas | kills | takeover (max) | availability | epoch before → after | export identical | stale rejected | converged |\n")
	b.WriteString("|---|---:|---:|---:|---:|---|---|---|---|\n")
	for _, r := range rs {
		avail := "n/a"
		if r.PushAttempts > 0 {
			avail = fmt.Sprintf("%.1f%%", 100*float64(r.PushAttempts-r.PushFailures)/float64(r.PushAttempts))
		}
		fmt.Fprintf(&b, "| %s | %d | %d | %s | %s | %d → %d | %t | %t | %s |\n",
			r.Substrate, r.Replicas, r.Kills,
			(time.Duration(r.TakeoverMaxUS) * time.Microsecond).String(),
			avail, r.EpochBefore, r.EpochAfter,
			r.ExportIdentical, r.StaleRejected, r.convergedCell())
	}
	return b.String()
}
