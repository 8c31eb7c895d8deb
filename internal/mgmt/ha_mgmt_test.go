package mgmt_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"sdme/internal/enforce"
	"sdme/internal/mgmt"
	"sdme/internal/topo"
)

// TestTermFenceRefusesStalePush: an agent that has seen a plan from term
// 5 must refuse a later rollout carrying term 3 outright — a
// *RefusedError, not an idempotent ack — even though the rollout carries
// a fresh epoch. The stale plan comes from where it would in production:
// a deposed leader that still accepts connections and pushes under its
// old term. That refusal is how it learns it lost (split-brain fencing,
// DESIGN §11).
func TestTermFenceRefusesStalePush(t *testing.T) {
	b := newMgmtBed(t, 0)
	node := b.dep.MBNodes[0]
	zombie, err := mgmt.NewServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(zombie.Close)
	zombie.SetLeader(3)

	// The node's agent knows both replicas; the bed server leads at term 5.
	agent := b.replaceAgent(t, node, mgmt.AgentOptions{
		Addrs:      []string{b.server.Addr(), zombie.Addr()},
		BackoffMin: 5 * time.Millisecond,
		BackoffMax: 100 * time.Millisecond,
	})
	b.server.SetLeader(5)
	b.pushAll(t)
	if got := agent.LastTerm(); got != 5 {
		t.Fatalf("agent term = %d after a term-5 rollout, want 5", got)
	}
	applies0 := agent.Stats().Applies

	// The leader bounces the agent onto the deposed replica, whose
	// rollout carries its stale term and a fresh epoch. The only thing
	// standing between this plan and the device is the agent-side fence.
	b.server.SetNotLeader(zombie.Addr())
	b.server.DropConn(node)
	if !zombie.WaitConnected(5*time.Second, node) {
		t.Fatal("agent did not reach the deposed replica")
	}
	_, err = zombie.PushAllDelta2PC(
		map[topo.NodeID]enforce.ConfigDelta{node: {}},
		map[topo.NodeID]mgmt.ConfigDTO{node: b.configs[node]}, testPol)
	var refused *mgmt.RefusedError
	if !errors.As(err, &refused) {
		t.Fatalf("stale-term rollout returned %v, want a *RefusedError", err)
	}
	if !strings.Contains(refused.Reason, "stale term") {
		t.Fatalf("refusal reason %q does not name the stale term", refused.Reason)
	}
	st := agent.Stats()
	if st.Applies != applies0 {
		t.Fatalf("stale-term plan reached the device: applies %d -> %d", applies0, st.Applies)
	}
	if st.StaleTerms < 1 {
		t.Fatalf("stale-term counter not bumped: %+v", st)
	}
	if got := agent.LastTerm(); got != 5 {
		t.Fatalf("stale rollout moved the agent's term to %d", got)
	}

	// The legitimate successor (term 6) still gets through.
	b.server.SetLeader(6)
	zombie.SetNotLeader(b.server.Addr())
	zombie.DropAllConns()
	if !b.server.WaitConnected(5*time.Second, node) {
		t.Fatal("agent did not re-home to the term-6 leader")
	}
	if err := b.pushOne(node, testPol); err != nil {
		t.Fatalf("term-6 rollout after the fence: %v", err)
	}
	if got := agent.LastTerm(); got != 6 {
		t.Fatalf("agent term = %d after a term-6 rollout, want 6", got)
	}
	if got := agent.Stats().Applies; got != applies0+1 {
		t.Fatalf("term-6 plan applied %d times, want exactly 1", got-applies0)
	}
}

// TestNotLeaderRedirectAndRotation: an agent configured with the whole
// replica set re-homes to whichever replica leads — first by following a
// NotLeader redirect from a standby at connect time, then again after
// the leadership (and its bounce) moves the other way.
func TestNotLeaderRedirectAndRotation(t *testing.T) {
	b := newMgmtBed(t, 0)
	node := b.dep.MBNodes[0]
	b.closeAgent(t, node)

	serverB, err := mgmt.NewServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(serverB.Close)

	// Replica A (the bed server) is a standby that knows the leader; B leads.
	b.server.SetNotLeader(serverB.Addr())
	serverB.SetLeader(1)

	agent, err := mgmt.NewAgentWith(b.devices[node], b.server.Addr(), mgmt.AgentOptions{
		Addrs:      []string{b.server.Addr(), serverB.Addr()},
		BackoffMin: 5 * time.Millisecond,
		BackoffMax: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("agent never reached the leader through the redirect: %v", err)
	}
	b.agents[node] = agent
	if !serverB.WaitConnected(3*time.Second, node) {
		t.Fatal("agent did not land on the leader")
	}
	if got := agent.Stats().Redirects; got < 1 {
		t.Fatalf("redirects = %d, want >= 1 (dial order starts at the standby)", got)
	}

	// Leadership moves back to A. B deposes itself, bounces to A, and cuts
	// its connections; the homed agent must follow without being rebuilt.
	b.server.SetLeader(2)
	serverB.SetNotLeader(b.server.Addr())
	serverB.DropAllConns()

	if !b.server.WaitConnected(5*time.Second, node) {
		t.Fatalf("agent did not re-home to the new leader: %+v", agent.Stats())
	}
	st := agent.Stats()
	if st.Reconnects < 1 {
		t.Fatalf("re-homing without a reconnect? %+v", st)
	}
	if st.Redirects < 2 {
		t.Fatalf("redirects = %d, want >= 2 (one per leadership move)", st.Redirects)
	}

	// And the new home is a working one: a push lands end to end.
	if err := b.pushOne(node, testPol); err != nil {
		t.Fatalf("push through the re-homed connection: %v", err)
	}
}
