package mgmt_test

import (
	"errors"
	"net"
	"strconv"
	"testing"
	"time"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/faultinject"
	"sdme/internal/live"
	"sdme/internal/metrics"
	"sdme/internal/mgmt"
	"sdme/internal/netaddr"
	"sdme/internal/packet"
	"sdme/internal/policy"
	"sdme/internal/topo"
)

// TestReconnectDeliversLatestEpochExactlyOnce is the satellite coverage
// for the self-healing channel: the server-side connection dies
// mid-rollout — the node staged the new plan, the commit never reaches
// it — and the reconnecting agent re-HELLOs, receives the latest-epoch
// config exactly once, and resumes measurement reporting.
func TestReconnectDeliversLatestEpochExactlyOnce(t *testing.T) {
	b := newMgmtBed(t, 20*time.Millisecond)
	b.server.SetRepushPolicy(mgmt.RetryPolicy{Attempts: 5, PerAttempt: time.Second, Backoff: 20 * time.Millisecond})
	proxyID, _ := b.dep.ProxyFor(1)
	// A slow re-dial (0.5–1s) keeps the node dark through the commit phase.
	agent, tap := b.tapAgent(t, proxyID, mgmt.AgentOptions{ReportEvery: 20 * time.Millisecond, BackoffMin: time.Second})
	b.pushAll(t)

	applies0 := agent.Stats().Applies
	epoch0 := agent.LastEpoch()
	if epoch0 == 0 {
		t.Fatal("rollout did not stamp an epoch")
	}

	// The next plan generation: the connection dies mid-stream, right
	// after the node acked staging the plan. The commit cannot reach it,
	// but the rollout is decided and the plan recorded as latest.
	dropAfterNextAck(t, tap)
	deltas, _ := controller.DiffPlans(nil, b.pipe.Plan())
	latestEpoch, err := b.server.PushAllDelta2PC(deltas, nil, testPol)
	if !errors.Is(err, mgmt.ErrCommitStraggler) {
		t.Fatalf("rollout with a node dark at commit: err = %v, want ErrCommitStraggler", err)
	}
	if latestEpoch <= epoch0 {
		t.Fatalf("epoch did not advance: %d -> %d", epoch0, latestEpoch)
	}

	// The agent heals itself: re-dials, re-HELLOs with its stale epoch,
	// and the server re-pushes the latest plan.
	if !live.WaitUntil(5*time.Second, func() bool {
		return b.server.AckedEpoch(proxyID) == latestEpoch
	}) {
		t.Fatalf("latest epoch never acked: acked=%d want=%d connected=%v",
			b.server.AckedEpoch(proxyID), latestEpoch, b.server.Connected())
	}
	st := agent.Stats()
	if st.Reconnects < 1 {
		t.Errorf("agent never reconnected: %+v", st)
	}
	if agent.LastEpoch() != latestEpoch {
		t.Errorf("agent epoch = %d, want %d", agent.LastEpoch(), latestEpoch)
	}
	// Exactly once: one apply for the re-pushed latest plan — the staged
	// copy of the same epoch is never applied on top of it.
	if got := st.Applies - applies0; got != 1 {
		t.Errorf("latest-epoch config applied %d times, want exactly 1 (%+v)", got, st)
	}
	if !b.server.Converged(proxyID) {
		t.Error("server does not consider the node converged")
	}

	// Measurement reports resume on the new connection.
	before := b.measTotal()
	ft := netaddr.FiveTuple{
		Src: topo.HostAddr(1, 9), Dst: topo.HostAddr(2, 1),
		SrcPort: 49100, DstPort: 80, Proto: netaddr.ProtoTCP,
	}
	for i := 0; i < 5; i++ {
		if err := b.rt.Inject(b.dep.AddrOf(proxyID), packet.New(ft, 24)); err != nil {
			t.Fatal(err)
		}
	}
	if !live.WaitUntil(5*time.Second, func() bool { return b.measTotal() >= before+5 }) {
		t.Fatalf("measurement reports did not resume after reconnect (total %d, want >= %d)",
			b.measTotal(), before+5)
	}
}

// TestReconnectNoRepushWhenCurrent: an agent that reconnects already
// holding the latest epoch gets nothing re-pushed — idempotence, not
// periodic flooding.
func TestReconnectNoRepushWhenCurrent(t *testing.T) {
	b := newMgmtBed(t, 0)
	b.pushAll(t)
	node := b.dep.MBNodes[0]
	agent := b.agents[node]
	applies0 := agent.Stats().Applies

	if !b.server.DropConn(node) {
		t.Fatal("no connection to drop")
	}
	if !live.WaitUntil(5*time.Second, func() bool { return agent.Stats().Reconnects >= 1 }) {
		t.Fatal("agent never reconnected")
	}
	if !b.server.WaitConnected(3*time.Second, node) {
		t.Fatal("reconnect did not register")
	}
	// Give a would-be re-push time to land, then assert none did.
	time.Sleep(100 * time.Millisecond)
	st := agent.Stats()
	if st.Applies != applies0 || st.StaleConfigs != 0 {
		t.Errorf("up-to-date agent got a re-push: %+v (applies0=%d)", st, applies0)
	}
}

// TestChaosPushRetryHealsAckLoss injects ack loss with the fault conn:
// the first commit is applied but its ack vanishes; the retry of the
// same epoch is acked idempotently without a second apply.
func TestChaosPushRetryHealsAckLoss(t *testing.T) {
	b := newMgmtBed(t, 0)
	node := b.dep.MBNodes[0]
	agent, tap := b.tapAgent(t, node, mgmt.AgentOptions{})

	// After the prepare ack, the next frame the agent writes (the commit
	// ack) vanishes.
	tap.AfterFrames(1, func(c *faultinject.Conn) { c.DropFrames(1) })
	start := time.Now()
	err := b.pushOne(node, mgmt.RetryPolicy{Attempts: 3, PerAttempt: 300 * time.Millisecond, Backoff: 20 * time.Millisecond})
	if err != nil {
		t.Fatalf("rollout never survived ack loss: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 300*time.Millisecond {
		t.Errorf("first attempt cannot have timed out in %v; was the ack really dropped?", elapsed)
	}
	st := agent.Stats()
	if st.Applies != 1 {
		t.Errorf("config applied %d times across retries, want exactly 1", st.Applies)
	}
	if st.StaleConfigs < 1 {
		t.Errorf("retry was not acked idempotently: %+v", st)
	}
	if dropped := tap.Dropped(); dropped < 1 {
		t.Errorf("fault conn dropped %d frames, want >= 1", dropped)
	}
}

// TestChaosDuplicateCommitCountsOneEpochReject: the agent counts each
// event once, in its registry, and Stats reads the same counters. A commit
// retry that finds its epoch applied is an epoch reject like an
// idempotently acked plan, so StaleConfigs and the node's
// sdme_agent_epoch_rejects_total agree.
func TestChaosDuplicateCommitCountsOneEpochReject(t *testing.T) {
	b := newMgmtBed(t, 0)
	node := b.dep.MBNodes[0]
	reg := metrics.NewRegistry(nil)
	agent, tap := b.tapAgent(t, node, mgmt.AgentOptions{Metrics: reg})

	// The commit ack vanishes, so the server retries a commit the agent
	// already applied.
	tap.AfterFrames(1, func(c *faultinject.Conn) { c.DropFrames(1) })
	if err := b.pushOne(node, mgmt.RetryPolicy{Attempts: 3, PerAttempt: 300 * time.Millisecond, Backoff: 20 * time.Millisecond}); err != nil {
		t.Fatalf("rollout never survived ack loss: %v", err)
	}
	st := agent.Stats()
	rejects := reg.Counter(mgmt.MetricAgentEpochRejects, "node", strconv.Itoa(int(node))).Value()
	if st.StaleConfigs < 1 || st.StaleConfigs != rejects {
		t.Errorf("StaleConfigs = %d, %s = %d: want equal and ≥ 1", st.StaleConfigs, mgmt.MetricAgentEpochRejects, rejects)
	}
	if applies := reg.Counter(mgmt.MetricAgentApplies, "node", strconv.Itoa(int(node))).Value(); applies != st.Applies {
		t.Errorf("Applies = %d, %s = %d", st.Applies, mgmt.MetricAgentApplies, applies)
	}
}

// TestReconnectCatchupKeepsLabelSwitchedFlow: a middlebox's agent dies
// between prepare and commit of an empty-delta probe, so the reconnect
// catch-up re-installs, as a full configuration, the plan the middlebox
// already runs. The label path of a flow the proxy already label-switches
// must survive it: every later packet is delivered and no label lookup
// misses. A catch-up that wiped the label table blackholed the flow for
// good (FlowTTL 0: the proxy never re-tunnels it).
func TestReconnectCatchupKeepsLabelSwitchedFlow(t *testing.T) {
	b := newMgmtBedWith(t, 0, controller.Options{
		Strategy:       enforce.HotPotato,
		K:              map[policy.FuncType]int{policy.FuncFW: 2, policy.FuncIDS: 1},
		LabelSwitching: true,
	})
	b.server.SetRepushPolicy(mgmt.RetryPolicy{Attempts: 5, PerAttempt: time.Second, Backoff: 20 * time.Millisecond})
	proxyID, _ := b.dep.ProxyFor(1)
	// Tap every middlebox's agent (a re-dial 0.3–0.6s after a drop keeps
	// the node dark through the commit phase), then deploy.
	taps := make(map[topo.NodeID]*faultinject.ConnTap)
	for _, mb := range b.dep.MBNodes {
		_, taps[mb] = b.tapAgent(t, mb, mgmt.AgentOptions{BackoffMin: 600 * time.Millisecond})
	}
	b.pushAll(t)

	ft := netaddr.FiveTuple{
		Src: topo.HostAddr(1, 1), Dst: topo.HostAddr(2, 1),
		SrcPort: 47300, DstPort: 80, Proto: netaddr.ProtoTCP,
	}
	// send injects n packets of the flow one at a time — the first packet's
	// control message must set up the label path before the next leaves
	// the proxy — and returns how many reached the sink.
	send := func(n int) int {
		t.Helper()
		delivered := 0
		for i := 0; i < n; i++ {
			want := b.sink.Received() + 1
			if err := b.rt.Inject(b.dep.AddrOf(proxyID), packet.New(ft, 24)); err != nil {
				t.Fatal(err)
			}
			if live.WaitUntil(2*time.Second, func() bool { return b.sink.Received() >= want }) {
				delivered++
			}
		}
		return delivered
	}
	if got := send(2); got != 2 { // tunneled, then label-switched
		t.Fatalf("delivered %d of the first 2 packets", got)
	}
	if c := b.devices[proxyID].Counters(); c.TunnelTx != 1 || c.LabelTx != 1 {
		t.Fatalf("flow not label-switched before the catch-up: %+v", c)
	}
	victim := topo.InvalidNode
	for _, mb := range b.dep.MBNodes {
		if b.devices[mb].Counters().Load > 0 {
			victim = mb
			break
		}
	}
	if victim == topo.InvalidNode {
		t.Fatal("no middlebox on the flow's path")
	}

	dropAfterNextAck(t, taps[victim])
	before := b.agents[victim].Stats().Applies
	err := b.pushOne(victim, testPol)
	if !errors.Is(err, mgmt.ErrCommitStraggler) {
		t.Fatalf("probe with the victim dark at commit: err = %v, want ErrCommitStraggler", err)
	}
	epoch := b.server.Epoch()
	if !live.WaitUntil(5*time.Second, func() bool { return b.server.AckedEpoch(victim) == epoch }) {
		t.Fatalf("catch-up never acked: acked %d, want %d", b.server.AckedEpoch(victim), epoch)
	}
	if got := b.agents[victim].Stats().Applies - before; got != 1 {
		t.Fatalf("victim installed %d configurations, want the one catch-up", got)
	}

	const later = 8
	if got := send(later); got != later {
		t.Errorf("delivered %d of the %d packets after the catch-up", got, later)
	}
	if c := b.devices[victim].Counters(); c.LabelMiss != 0 {
		t.Errorf("middlebox %v after the catch-up: LabelMiss %d", victim, c.LabelMiss)
	}
	if c := b.devices[proxyID].Counters(); c.TunnelTx != 1 || c.LabelTx != 1+later {
		t.Errorf("proxy: TunnelTx %d LabelTx %d, want 1 and %d", c.TunnelTx, c.LabelTx, 1+later)
	}
}

// TestChaosPushFailsFastOnConnDeath: a push waiting on an ack must fail
// the moment the connection dies, not after the full timeout.
func TestChaosPushFailsFastOnConnDeath(t *testing.T) {
	b := newMgmtBed(t, 0)
	node := b.dep.MBNodes[0]
	// Slow reconnects so the fail-fast window is unambiguous.
	_, tap := b.tapAgent(t, node, mgmt.AgentOptions{BackoffMin: 2 * time.Second})

	tap.DropFrames(8) // swallow acks: the push would wait its full budget
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		done <- b.pushOne(node, mgmt.RetryPolicy{Attempts: 1, PerAttempt: 30 * time.Second})
	}()
	time.Sleep(150 * time.Millisecond) // let the prepare land and its ack be eaten
	tap.DropConn()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("push succeeded with its ack dropped and conn dead")
		}
		if !errors.Is(err, mgmt.ErrConnClosed) {
			t.Errorf("err = %v, want ErrConnClosed", err)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Errorf("push took %v to notice the dead conn (timeout was 30s)", elapsed)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("push waited out its timeout instead of failing fast")
	}
}

// TestPushWhileDisconnectedConvergesOnReconnect: a commit to a node with
// no connection fails with ErrNotConnected (without consuming wire
// state), yet the decided plan still reaches the node when its agent
// appears. (A node that is already gone at prepare time fails the quorum
// and nothing is decided: TestTwoPhaseCommitStragglerHealsViaReconnect.)
func TestPushWhileDisconnectedConvergesOnReconnect(t *testing.T) {
	b := newMgmtBed(t, 0)
	b.server.SetRepushPolicy(mgmt.RetryPolicy{Attempts: 5, PerAttempt: time.Second, Backoff: 20 * time.Millisecond})
	node := b.dep.MBNodes[0]

	// The node goes away right after staging the plan and does not come
	// back on its own (its re-dial is 5s out).
	gone, tap := b.tapAgent(t, node, mgmt.AgentOptions{BackoffMin: 10 * time.Second})
	dropAfterNextAck(t, tap)
	deltas, _ := controller.DiffPlans(nil, b.pipe.Plan())
	latest, err := b.server.PushAllDelta2PC(deltas, b.configs, testPol)
	if !errors.Is(err, mgmt.ErrCommitStraggler) {
		t.Fatalf("err = %v, want ErrCommitStraggler", err)
	}
	if !errors.Is(err, mgmt.ErrNotConnected) && !errors.Is(err, mgmt.ErrConnClosed) {
		t.Fatalf("err = %v, want the straggler's cause: no connection", err)
	}
	gone.Close()

	agent, err := mgmt.NewAgent(b.devices[node], b.server.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	b.agents[node] = agent
	if !live.WaitUntil(5*time.Second, func() bool { return b.server.AckedEpoch(node) == latest }) {
		t.Fatalf("stored plan never delivered on reconnect (acked %d, want %d)",
			b.server.AckedEpoch(node), latest)
	}
}

// closeAgent stops a node's agent and waits until the server has noticed:
// the server deregisters a connection only when its read loop sees the
// close, so until then WaitConnected would still answer for the old one.
func (b *mgmtBed) closeAgent(t *testing.T, node topo.NodeID) {
	t.Helper()
	b.agents[node].Close()
	if !live.WaitUntil(3*time.Second, func() bool {
		for _, id := range b.server.Connected() {
			if id == node {
				return false
			}
		}
		return true
	}) {
		t.Fatal("closed agent still registered")
	}
}

// replaceAgent swaps a node's agent for one with the given options.
func (b *mgmtBed) replaceAgent(t *testing.T, node topo.NodeID, opts mgmt.AgentOptions) *mgmt.Agent {
	t.Helper()
	b.closeAgent(t, node)
	agent, err := mgmt.NewAgentWith(b.devices[node], b.server.Addr(), opts)
	if err != nil {
		t.Fatal(err)
	}
	b.agents[node] = agent
	if !b.server.WaitConnected(3*time.Second, node) {
		t.Fatal("replacement agent did not connect")
	}
	return agent
}

// tapAgent is replaceAgent with the new agent dialing through a fault tap.
func (b *mgmtBed) tapAgent(t *testing.T, node topo.NodeID, opts mgmt.AgentOptions) (*mgmt.Agent, *faultinject.ConnTap) {
	t.Helper()
	tap := &faultinject.ConnTap{}
	opts.Dial = tap.Dial(func() (net.Conn, error) { return net.Dial("tcp", b.server.Addr()) })
	return b.replaceAgent(t, node, opts), tap
}

// dropAfterNextAck arms a tapped agent to lose its connection right after
// the next frame it writes. Armed before a rollout that is its prepare
// ack: the server reads the ack and then the close, so the node is dark
// exactly between the two phases — a commit straggler by construction,
// nothing raced.
func dropAfterNextAck(t *testing.T, tap *faultinject.ConnTap) {
	t.Helper()
	if !tap.AfterFrames(1, (*faultinject.Conn).DropNow) {
		t.Fatal("no connection to arm")
	}
}

func (b *mgmtBed) measTotal() int64 {
	b.measMu.Lock()
	defer b.measMu.Unlock()
	var total int64
	for _, v := range b.meas {
		total += v
	}
	return total
}
