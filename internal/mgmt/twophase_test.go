package mgmt_test

import (
	"errors"
	"testing"
	"time"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/live"
	"sdme/internal/mgmt"
	"sdme/internal/netaddr"
	"sdme/internal/packet"
	"sdme/internal/policy"
	"sdme/internal/topo"
	"sdme/internal/verify"
)

// fleetViews snapshots every node's (epoch, installed config) for the
// cross-node plan-consistency invariant.
func (b *mgmtBed) fleetViews() map[topo.NodeID]verify.NodePlanView {
	views := make(map[topo.NodeID]verify.NodePlanView, len(b.agents))
	for id, a := range b.agents {
		views[id] = verify.ViewOf(a.LastEpoch(), b.nodes[id].Config())
	}
	return views
}

func TestTwoPhasePushAllCommits(t *testing.T) {
	b := newMgmtBed(t, 0)
	epoch := b.pushAll(t)
	if epoch == 0 {
		t.Fatal("2pc push returned zero epoch")
	}
	for id, a := range b.agents {
		if got := a.LastEpoch(); got != epoch {
			t.Errorf("node %v on epoch %d, want %d", id, got, epoch)
		}
		st := a.Stats()
		if st.Prepared < 1 || st.Committed < 1 {
			t.Errorf("node %v: prepared=%d committed=%d, want >=1 each", id, st.Prepared, st.Committed)
		}
		if se := a.StagedEpoch(); se != 0 {
			t.Errorf("node %v still holds staged epoch %d after commit", id, se)
		}
	}
	if !b.server.Converged() {
		t.Error("server not converged after full 2pc commit")
	}

	// The committed plan actually enforces: a chain flow traverses it.
	proxyID, _ := b.dep.ProxyFor(1)
	ft := netaddr.FiveTuple{
		Src: topo.HostAddr(1, 1), Dst: topo.HostAddr(2, 1),
		SrcPort: 47100, DstPort: 80, Proto: netaddr.ProtoTCP,
	}
	if err := b.rt.Inject(b.dep.AddrOf(proxyID), packet.New(ft, 24)); err != nil {
		t.Fatal(err)
	}
	if !live.WaitUntil(3*time.Second, func() bool { return b.sink.Received() >= 1 }) {
		t.Fatal("flow did not traverse the 2pc-committed plan")
	}
}

// A prepare refusal anywhere must leave EVERY node on its previous plan:
// the failed epoch is rolled back, nothing is half-deployed, and no two
// nodes disagree about the running epoch.
func TestTwoPhaseAbortOnPrepareFailureNeverMixesPlans(t *testing.T) {
	b := newMgmtBed(t, 0)

	// Establish a committed baseline epoch first.
	base := b.pushAll(t)

	// Next generation: one node's plan is garbage (a negative weight — what
	// LP round-off used to produce), so its prepare is refused and the
	// whole batch must roll back.
	deltas := make(map[topo.NodeID]enforce.ConfigDelta, len(b.nodes))
	for id := range b.nodes {
		deltas[id] = enforce.ConfigDelta{}
	}
	victim := b.dep.MBNodes[0]
	deltas[victim] = enforce.ConfigDelta{SetWeights: map[enforce.WeightKey][]float64{
		{PolicyID: 1, Func: policy.FuncIDS}: {-1e-3},
	}}

	_, err := b.server.PushAllDelta2PC(deltas, nil, mgmt.RetryPolicy{Attempts: 2, PerAttempt: 3 * time.Second})
	if err == nil {
		t.Fatal("2pc with an invalid plan committed")
	}
	if errors.Is(err, mgmt.ErrCommitStraggler) {
		t.Errorf("a refused prepare reported as a commit straggler: %v", err)
	}
	var refused *mgmt.RefusedError
	if !errors.As(err, &refused) {
		t.Errorf("prepare failure should surface the agent's refusal, got %v", err)
	}

	for id, a := range b.agents {
		if got := a.LastEpoch(); got != base {
			t.Errorf("node %v on epoch %d after rollback, want baseline %d", id, got, base)
		}
		if se := a.StagedEpoch(); se != 0 {
			t.Errorf("node %v kept staged epoch %d after abort", id, se)
		}
	}
	// At least one healthy node staged and then discarded the plan.
	var aborted int64
	for _, a := range b.agents {
		aborted += a.Stats().Aborted
	}
	if aborted == 0 {
		t.Error("no agent recorded an abort — rollback never reached the staged nodes")
	}
}

// A reconnect re-push (plain config at the committed epoch) overtaking
// the commit retry must win exactly once: the node's connection dies
// right after it acked staging the plan and stays down through the commit
// decision,
// the re-dialing agent is caught up by the re-push, and the commit's
// second attempt finds the epoch already applied — it acks idempotently
// and applies nothing.
func TestTwoPhaseRepushOvertakingCommitAppliesOnce(t *testing.T) {
	b := newMgmtBed(t, 0)
	node := b.dep.MBNodes[0]
	// Re-dial 0.3–0.6s after the drop: after the commit decision
	// (milliseconds in), well before the commit's second attempt (2s in).
	a, tap := b.tapAgent(t, node, mgmt.AgentOptions{BackoffMin: 600 * time.Millisecond})
	b.pushAll(t)
	applies0 := a.Stats().Applies

	dropAfterNextAck(t, tap)
	deltas, _ := controller.DiffPlans(nil, b.pipe.Plan())
	epoch, err := b.server.PushAllDelta2PC(deltas, nil,
		mgmt.RetryPolicy{Attempts: 2, PerAttempt: 3 * time.Second, Backoff: 2 * time.Second})
	if err != nil {
		t.Fatalf("rollout through a reconnect: %v", err)
	}
	if got := a.LastEpoch(); got != epoch {
		t.Errorf("agent on epoch %d, want %d", got, epoch)
	}
	st := a.Stats()
	if got := st.Applies - applies0; got != 1 {
		t.Errorf("epoch %d applied %d times, want exactly 1 (%+v)", epoch, got, st)
	}
	if st.StaleConfigs == 0 {
		t.Errorf("neither the re-push nor the commit retry was treated as stale: %+v", st)
	}
}

// Successive 2PC generations advance the fleet monotonically.
func TestTwoPhaseSuccessiveGenerations(t *testing.T) {
	b := newMgmtBed(t, 0)
	e1 := b.pushAll(t)
	e2 := b.pushAll(t)
	if e2 <= e1 {
		t.Fatalf("epochs not monotonic: %d then %d", e1, e2)
	}
	for id, a := range b.agents {
		if got := a.LastEpoch(); got != e2 {
			t.Errorf("node %v on epoch %d, want %d", id, got, e2)
		}
	}
}

// The plan-consistency invariant over a real fleet: clean after an
// epoch-fenced batch, and flagging the exact divergent node after a
// deliberately partial one-node batch — the failure mode fleet-wide
// batches exist to prevent.
func TestTwoPhaseFleetPlanConsistency(t *testing.T) {
	b := newMgmtBed(t, 0)
	b.pushAll(t)
	if v := verify.CheckConsistency(b.fleetViews()); len(v) != 0 {
		t.Fatalf("consistent fleet flagged: %v", v)
	}

	// Push a lone node forward in a one-node batch: the fleet now mixes
	// generations, and the checker must say which node.
	node := b.dep.MBNodes[0]
	if err := b.pushOne(node, mgmt.RetryPolicy{Attempts: 2, PerAttempt: 3 * time.Second}); err != nil {
		t.Fatal(err)
	}
	viol := verify.CheckConsistency(b.fleetViews())
	if len(viol) == 0 {
		t.Fatal("mixed-epoch fleet passed the consistency check")
	}
	for _, v := range viol {
		if v.Invariant != verify.InvConsistency {
			t.Errorf("violation %v not tagged %v", v, verify.InvConsistency)
		}
	}
}

// Killing an agent before prepare: the batch fails its prepare quorum and
// rolls back — no node moves. Once the agent rejoins, the next generation
// lands on everyone together. (An agent lost between prepare and commit
// is the straggler the reconnect re-push heals:
// TestPushWhileDisconnectedConvergesOnReconnect.)
func TestTwoPhaseCommitStragglerHealsViaReconnect(t *testing.T) {
	b := newMgmtBed(t, 0)
	base := b.pushAll(t)

	// Drop one agent entirely. Prepare cannot reach it, so this generation
	// rolls back; that is the fenced behavior — no node moves.
	node := b.dep.MBNodes[0]
	b.agents[node].Close()
	delete(b.agents, node)
	b.server.DropConn(node)

	deltas, _ := controller.DiffPlans(nil, b.pipe.Plan())
	if _, err := b.server.PushAllDelta2PC(deltas, nil, mgmt.RetryPolicy{Attempts: 1, PerAttempt: time.Second}); err == nil {
		t.Fatal("2pc committed with a dead member")
	}
	for id, a := range b.agents {
		if got := a.LastEpoch(); got != base {
			t.Errorf("node %v moved to epoch %d while fleet was partial", id, got)
		}
	}

	// Rejoin and run the next generation: everyone lands on it together.
	agent, err := mgmt.NewAgent(b.devices[node], b.server.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	b.agents[node] = agent
	if !b.server.WaitConnected(3*time.Second, node) {
		t.Fatal("agent did not rejoin")
	}
	next := b.pushAll(t)
	if !live.WaitUntil(3*time.Second, func() bool {
		for _, a := range b.agents {
			if a.LastEpoch() != next {
				return false
			}
		}
		return true
	}) {
		t.Fatal("fleet did not converge on the post-rejoin generation")
	}
}
