package mgmt_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/live"
	"sdme/internal/mgmt"
	"sdme/internal/netaddr"
	"sdme/internal/packet"
	"sdme/internal/policy"
	"sdme/internal/route"
	"sdme/internal/topo"
)

func TestConfigDTORoundTrip(t *testing.T) {
	tbl := policy.NewTable()
	d := policy.NewDescriptor()
	d.Src = netaddr.MustParsePrefix("10.1.0.0/16")
	d.DstPort = netaddr.SinglePort(80)
	p := tbl.Add(d, policy.ActionList{policy.FuncFW, policy.FuncIDS})

	cfg := enforce.Config{
		Policies: []*policy.Policy{p},
		Candidates: map[policy.FuncType][]topo.NodeID{
			policy.FuncFW:  {11, 12},
			policy.FuncIDS: {13},
		},
		Weights: map[enforce.WeightKey][]float64{
			{PolicyID: p.ID, Func: policy.FuncFW}: {0.7, 0.3},
		},
		Strategy:       enforce.LoadBalanced,
		HashSeed:       999,
		LabelSwitching: true,
		FlowTTL:        12345,
		LabelTTL:       67890,
	}
	dto := mgmt.ConfigToDTO(7, cfg)
	back := mgmt.ConfigFromDTO(dto)
	if back.Strategy != cfg.Strategy || back.HashSeed != cfg.HashSeed ||
		back.LabelSwitching != cfg.LabelSwitching ||
		back.FlowTTL != cfg.FlowTTL || back.LabelTTL != cfg.LabelTTL {
		t.Errorf("scalar fields lost: %+v", back)
	}

	// A controller from before the classifier option was removed still
	// sends "use_trie"; agents must take its configs as they are.
	wire, err := json.Marshal(dto)
	if err != nil {
		t.Fatal(err)
	}
	var legacy mgmt.ConfigDTO
	if err := json.Unmarshal(append([]byte(`{"use_trie":true,`), wire[1:]...), &legacy); err != nil {
		t.Fatalf("legacy config does not decode: %v", err)
	}
	if err := legacy.Validate(); err != nil {
		t.Fatalf("legacy config does not validate: %v", err)
	}
	if !reflect.DeepEqual(legacy, dto) {
		t.Errorf("legacy config decoded to %+v, want %+v", legacy, dto)
	}
	if len(back.Policies) != 1 {
		t.Fatalf("policies = %d", len(back.Policies))
	}
	bp := back.Policies[0]
	if bp.ID != p.ID || !bp.Actions.Equal(p.Actions) || bp.Desc != p.Desc {
		t.Errorf("policy round trip: %+v vs %+v", bp, p)
	}
	if len(back.Candidates[policy.FuncFW]) != 2 || back.Candidates[policy.FuncFW][0] != 11 {
		t.Errorf("candidates: %v", back.Candidates)
	}
	w := back.Weights[enforce.WeightKey{PolicyID: p.ID, Func: policy.FuncFW}]
	if len(w) != 2 || w[0] != 0.7 {
		t.Errorf("weights: %v", w)
	}
}

// TestConfigDTOCanonicalBytes: equal configurations encode to identical
// wire and journal bytes — candidate lists and weight rows come out in a
// fixed order, not in map order.
func TestConfigDTOCanonicalBytes(t *testing.T) {
	cfg := enforce.Config{
		Candidates: map[policy.FuncType][]topo.NodeID{
			policy.FuncFW: {11, 12}, policy.FuncIDS: {13}, policy.FuncWP: {14, 15},
		},
		Weights: map[enforce.WeightKey][]float64{},
	}
	for pid := 1; pid <= 3; pid++ {
		for _, f := range []policy.FuncType{policy.FuncFW, policy.FuncIDS, policy.FuncWP} {
			cfg.Weights[enforce.WeightKey{PolicyID: pid, Func: f}] = []float64{float64(pid), 1}
			cfg.Weights[enforce.WeightKey{PolicyID: pid, Func: f, SrcSubnet: 2, DstSubnet: 1}] = []float64{1, float64(pid)}
		}
	}
	encode := func() []byte {
		wire, err := mgmt.EncodeEnvelope(mgmt.TypeConfig, mgmt.ConfigToDTO(0, cfg))
		if err != nil {
			t.Fatal(err)
		}
		journal, err := json.Marshal(mgmt.WeightsToDTO(0, cfg.Weights).Weights)
		if err != nil {
			t.Fatal(err)
		}
		return append(wire, journal...)
	}
	first := encode()
	for i := 1; i < 20; i++ {
		if got := encode(); !bytes.Equal(got, first) {
			t.Fatalf("encoding %d differs from the first:\n%s\n%s", i, got, first)
		}
	}
}

// mgmtBed: a live runtime whose devices are configured ONLY via the
// management channel.
type mgmtBed struct {
	g       *topo.Graph
	dep     *enforce.Deployment
	ap      *route.AllPairs
	tbl     *policy.Table
	ctl     *controller.Controller
	pipe    *controller.Pipeline
	nodes   map[topo.NodeID]*enforce.Node
	configs map[topo.NodeID]mgmt.ConfigDTO // each node's plan in wire form
	rt      *live.Runtime
	devices map[topo.NodeID]*live.Device
	sink    *live.Sink
	server  *mgmt.Server
	agents  map[topo.NodeID]*mgmt.Agent

	measMu sync.Mutex
	meas   controller.Measurements
}

func newMgmtBed(t *testing.T, reportEvery time.Duration) *mgmtBed {
	t.Helper()
	return newMgmtBedWith(t, reportEvery, controller.Options{
		Strategy: enforce.LoadBalanced,
		K:        map[policy.FuncType]int{policy.FuncFW: 2, policy.FuncIDS: 1},
	})
}

// newMgmtBedWith is newMgmtBed with explicit controller options.
func newMgmtBedWith(t *testing.T, reportEvery time.Duration, opts controller.Options) *mgmtBed {
	t.Helper()
	rng := rand.New(rand.NewSource(6))
	g := topo.Campus(topo.CampusConfig{Gateways: 2, CoreRouters: 4, EdgeRouters: 2, WithProxies: true}, rng)
	dep, err := enforce.NewDeployment(g)
	if err != nil {
		t.Fatal(err)
	}
	cores := g.NodesOfKind(topo.KindCoreRouter)
	dep.AddMiddlebox(cores[0], "fw1", policy.FuncFW)
	dep.AddMiddlebox(cores[2], "fw2", policy.FuncFW)
	dep.AddMiddlebox(cores[1], "ids1", policy.FuncIDS)

	tbl := policy.NewTable()
	d := policy.NewDescriptor()
	d.DstPort = netaddr.SinglePort(80)
	tbl.Add(d, policy.ActionList{policy.FuncFW, policy.FuncIDS})

	ap := route.NewAllPairs(g, route.RouterTransitOnly(g))
	ctl := controller.New(dep, ap, tbl, opts)
	// Compile the first plan and build the nodes from it; the management
	// channel must still deliver the configuration (agents start at epoch
	// 0 and the server holds no base).
	pipe := ctl.NewPipeline(controller.PipelineOptions{})
	upd, err := pipe.Recompute(nil)
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := ctl.BuildNodesFromPlan(upd.Plan)
	if err != nil {
		t.Fatal(err)
	}

	b := &mgmtBed{
		g: g, dep: dep, ap: ap, tbl: tbl, ctl: ctl, pipe: pipe, nodes: nodes,
		rt: live.NewRuntime(), devices: make(map[topo.NodeID]*live.Device),
		agents: make(map[topo.NodeID]*mgmt.Agent),
		meas:   make(controller.Measurements),
	}
	// Snapshot the wire form now: once a device owns its node, only the
	// device goroutine may read it.
	b.configs = make(map[topo.NodeID]mgmt.ConfigDTO, len(nodes))
	for id, n := range nodes {
		b.configs[id] = mgmt.ConfigToDTO(0, n.Config())
	}
	t.Cleanup(func() {
		for _, a := range b.agents {
			a.Close()
		}
		if b.server != nil {
			b.server.Close()
		}
		b.rt.Close()
	})

	server, err := mgmt.NewServer("127.0.0.1:0", func(_ topo.NodeID, rows []mgmt.MeasureRow) {
		b.measMu.Lock()
		defer b.measMu.Unlock()
		for _, r := range rows {
			b.meas[enforce.MeasKey{PolicyID: r.PolicyID, SrcSubnet: r.SrcSubnet, DstSubnet: r.DstSubnet}] += r.Packets
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	b.server = server

	var ids []topo.NodeID
	for id, n := range nodes {
		dev, err := b.rt.AddDevice(n)
		if err != nil {
			t.Fatal(err)
		}
		b.devices[id] = dev
		agent, err := mgmt.NewAgent(dev, server.Addr(), reportEvery)
		if err != nil {
			t.Fatal(err)
		}
		b.agents[id] = agent
		ids = append(ids, id)
	}
	if !server.WaitConnected(3*time.Second, ids...) {
		t.Fatalf("agents did not connect: %v of %v", server.Connected(), ids)
	}
	sink, err := b.rt.AddSink(topo.HostAddr(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	b.sink = sink
	return b
}

// testPol is the rollout policy the wire tests push with.
var testPol = mgmt.RetryPolicy{Attempts: 1, PerAttempt: 3 * time.Second}

// pushAll ships the bed's whole plan over the wire: a delta against the
// empty base, carried by the full-config fallback (b.configs) on a server
// that holds no base yet.
func (b *mgmtBed) pushAll(t *testing.T) uint64 {
	t.Helper()
	deltas, _ := controller.DiffPlans(nil, b.pipe.Plan())
	epoch, err := b.server.PushAllDelta2PC(deltas, b.configs, testPol)
	if err != nil {
		t.Fatalf("rollout: %v", err)
	}
	return epoch
}

// pushOne is a one-node batch: a fresh epoch for one node, as an empty
// delta on the server's recorded base or, without one, the node's full
// configuration.
func (b *mgmtBed) pushOne(node topo.NodeID, pol mgmt.RetryPolicy) error {
	return b.pushDTO(node, b.configs[node], pol)
}

// pushDTO is pushOne with an explicit fallback configuration.
func (b *mgmtBed) pushDTO(node topo.NodeID, dto mgmt.ConfigDTO, pol mgmt.RetryPolicy) error {
	_, err := b.server.PushAllDelta2PC(
		map[topo.NodeID]enforce.ConfigDelta{node: {}},
		map[topo.NodeID]mgmt.ConfigDTO{node: dto}, pol)
	return err
}

func TestConfigPushAndEnforcementOverWire(t *testing.T) {
	b := newMgmtBed(t, 0)
	b.pushAll(t)

	proxyID, _ := b.dep.ProxyFor(1)
	ft := netaddr.FiveTuple{
		Src: topo.HostAddr(1, 1), Dst: topo.HostAddr(2, 1),
		SrcPort: 47000, DstPort: 80, Proto: netaddr.ProtoTCP,
	}
	const n = 4
	for i := 0; i < n; i++ {
		if err := b.rt.Inject(b.dep.AddrOf(proxyID), packet.New(ft, 24)); err != nil {
			t.Fatal(err)
		}
	}
	if !live.WaitUntil(3*time.Second, func() bool { return b.sink.Received() >= n }) {
		t.Fatalf("sink received %d of %d", b.sink.Received(), n)
	}
	// The chain ran on configs that traveled the management channel.
	ids := b.dep.Providers(policy.FuncIDS)[0]
	if got := b.devices[ids].Counters().Load; got != n {
		t.Errorf("IDS load = %d, want %d", got, n)
	}
}

func TestMeasurementReportingAndRebalanceOverWire(t *testing.T) {
	b := newMgmtBed(t, 30*time.Millisecond)
	b.pushAll(t)

	proxyID, _ := b.dep.ProxyFor(1)
	for i := 0; i < 10; i++ {
		ft := netaddr.FiveTuple{
			Src: topo.HostAddr(1, 1+i), Dst: topo.HostAddr(2, 1),
			SrcPort: uint16(48000 + i), DstPort: 80, Proto: netaddr.ProtoTCP,
		}
		if err := b.rt.Inject(b.dep.AddrOf(proxyID), packet.New(ft, 24)); err != nil {
			t.Fatal(err)
		}
	}
	if !live.WaitUntil(3*time.Second, func() bool { return b.sink.Received() >= 10 }) {
		t.Fatalf("sink received %d", b.sink.Received())
	}
	// Reports arrive asynchronously; wait for all 10 packets' counts.
	if !live.WaitUntil(3*time.Second, func() bool {
		b.measMu.Lock()
		defer b.measMu.Unlock()
		var total int64
		for _, v := range b.meas {
			total += v
		}
		return total >= 10
	}) {
		t.Fatal("measurements never arrived at the controller")
	}

	// Close the §III-C loop: re-solve from the REPORTED measurements and
	// roll the result out. A weight refresh is a delta that carries only
	// weight edits.
	b.measMu.Lock()
	meas := make(controller.Measurements, len(b.meas))
	for k, v := range b.meas {
		meas[k] = v
	}
	b.measMu.Unlock()
	upd, err := b.pipe.Recompute(meas)
	if err != nil {
		t.Fatal(err)
	}
	if len(upd.Deltas) == 0 {
		t.Fatal("rebalance produced no deltas")
	}
	for id, d := range upd.Deltas {
		if d.Entries() != len(d.SetWeights)+len(d.DropWeights) {
			t.Errorf("rebalance delta for %v edits more than weights: %+v", id, d)
		}
	}
	if _, err := b.server.PushAllDelta2PC(upd.Deltas, nil, testPol); err != nil {
		t.Fatalf("reweight rollout: %v", err)
	}
	// Reweight deltas preserve soft state: the proxy's flow table still
	// has the 10 flows.
	proxyDev := b.devices[proxyID]
	var flows int
	proxyDev.Do(func(n *enforce.Node) { flows = n.FlowTable().Len() })
	if flows != 10 {
		t.Errorf("flow table lost state on the reweight rollout: %d entries", flows)
	}
}

func TestPushToUnknownNodeFails(t *testing.T) {
	b := newMgmtBed(t, 0)
	err := b.pushDTO(topo.NodeID(9999), mgmt.ConfigDTO{}, mgmt.RetryPolicy{Attempts: 1, PerAttempt: time.Second})
	if !errors.Is(err, mgmt.ErrNotConnected) {
		t.Errorf("push to unknown node: %v, want ErrNotConnected", err)
	}
}

func TestServerRejectsMalformedClients(t *testing.T) {
	server, err := mgmt.NewServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	// Garbage before hello: connection dropped, no registration.
	conn, err := net.Dial("tcp", server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte{0xff, 0xff, 0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	// The 4-byte prefix claims a 4GB frame; the server must hang up.
	buf := make([]byte, 1)
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(buf); err == nil {
		t.Error("server kept a connection that announced an absurd frame")
	}
	_ = conn.Close()
	if got := server.Connected(); len(got) != 0 {
		t.Errorf("malformed client registered: %v", got)
	}
}

func TestAgentRejectsBadConfig(t *testing.T) {
	b := newMgmtBed(t, 0)
	node := b.dep.MBNodes[0]
	// A config whose policy repeats a function type: the agent's
	// validation refuses it and the refusal travels back as the ack error.
	dto := mgmt.ConfigDTO{
		Strategy: int(enforce.HotPotato),
		Policies: []mgmt.PolicyDTO{{
			ID: 1, SrcBits: 0, DstBits: 0,
			SrcPortHi: 65535, DstPortHi: 65535,
			Actions: []int{int(policy.FuncFW), int(policy.FuncIDS), int(policy.FuncFW)},
		}},
	}
	err := b.pushDTO(node, dto, testPol)
	if err == nil {
		t.Fatal("bad config accepted")
	}
	if !strings.Contains(err.Error(), "repeats function") {
		t.Errorf("refusal reason lost on the wire: %v", err)
	}
}

func TestAgentReconnectAfterServerRestart(t *testing.T) {
	b := newMgmtBed(t, 0)
	node := b.dep.MBNodes[0]
	// Close the agent and re-dial a fresh one to the same server: pushes
	// must work again (the server replaces the connection).
	b.agents[node].Close()
	dev := b.devices[node]
	agent, err := mgmt.NewAgent(dev, b.server.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	if !b.server.WaitConnected(3*time.Second, node) {
		t.Fatal("reconnect did not register")
	}
	if err := b.pushOne(node, testPol); err != nil {
		t.Fatalf("push after reconnect: %v", err)
	}
}

// countingConn keeps a copy of every Write on a connection.
type countingConn struct {
	net.Conn
	mu     sync.Mutex
	writes [][]byte
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, append([]byte(nil), p...))
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// Every frame an agent sends — its hello, the prepare and commit acks of a
// rollout — is one Write holding exactly one whole frame.
func TestOneWritePerFrame(t *testing.T) {
	b := newMgmtBed(t, 0)
	node := b.dep.ProxyNodes[0]
	cc := &countingConn{}
	b.replaceAgent(t, node, mgmt.AgentOptions{Dial: func() (net.Conn, error) {
		conn, err := net.Dial("tcp", b.server.Addr())
		if err != nil {
			return nil, err
		}
		cc.Conn = conn
		return cc, nil
	}})
	if err := b.pushOne(node, testPol); err != nil {
		t.Fatal(err)
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if len(cc.writes) != 3 {
		t.Fatalf("agent made %d writes for a hello and two acks", len(cc.writes))
	}
	for i, w := range cc.writes {
		if len(w) < 4 || int(binary.BigEndian.Uint32(w)) != len(w)-4 {
			t.Fatalf("write %d (%d bytes) is not one whole frame", i, len(w))
		}
	}
}

// A frame the server sends in the same segment as the hello-ack lands in
// the buffer the agent's handshake read through; the read loop must go on
// from that buffer, or the frame is lost and its sender waits out its
// timeout.
func TestFrameBehindHelloAckIsServed(t *testing.T) {
	b := newMgmtBed(t, 0)
	node := b.dep.ProxyNodes[0]
	b.closeAgent(t, node)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	frame := func(typ string, v interface{}) []byte {
		env, err := mgmt.EncodeEnvelope(typ, v)
		if err != nil {
			t.Error(err)
		}
		return append(binary.BigEndian.AppendUint32(nil, uint32(len(env))), env...)
	}
	acked := make(chan mgmt.Ack, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		read := func() *mgmt.Envelope {
			var hdr [4]byte
			if _, err := io.ReadFull(conn, hdr[:]); err != nil {
				return nil
			}
			buf := make([]byte, binary.BigEndian.Uint32(hdr[:]))
			if _, err := io.ReadFull(conn, buf); err != nil {
				return nil
			}
			env, _ := mgmt.DecodeEnvelope(buf)
			return env
		}
		if env := read(); env == nil || env.T != mgmt.TypeHello {
			return
		}
		seg := append(frame(mgmt.TypeHelloAck, mgmt.Ack{}), frame(mgmt.TypeAbort, mgmt.Commit{Seq: 7, Epoch: 1})...)
		if _, err := conn.Write(seg); err != nil {
			return
		}
		if env := read(); env != nil && env.T == mgmt.TypeAck {
			var ack mgmt.Ack
			if json.Unmarshal(env.Data, &ack) == nil {
				acked <- ack
			}
		}
	}()
	agent, err := mgmt.NewAgentWith(b.devices[node], l.Addr().String(), mgmt.AgentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b.agents[node] = agent
	select {
	case ack := <-acked:
		if ack.Seq != 7 || ack.Error != "" {
			t.Fatalf("abort answered with %+v", ack)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("the frame behind the hello-ack was never answered")
	}
}
