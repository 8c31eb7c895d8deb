package live_test

import (
	"math/rand"
	"testing"
	"time"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/live"
	"sdme/internal/netaddr"
	"sdme/internal/packet"
	"sdme/internal/policy"
	"sdme/internal/route"
	"sdme/internal/topo"
)

// liveBed spins up a small deployment as real UDP endpoints.
type liveBed struct {
	rt      *live.Runtime
	dep     *enforce.Deployment
	devices map[topo.NodeID]*live.Device
	sink    *live.Sink
	tbl     *policy.Table
}

func newLiveBed(t *testing.T, opts controller.Options) *liveBed {
	t.Helper()
	rng := rand.New(rand.NewSource(2))
	g := topo.Campus(topo.CampusConfig{Gateways: 2, CoreRouters: 4, EdgeRouters: 2, WithProxies: true}, rng)
	dep, err := enforce.NewDeployment(g)
	if err != nil {
		t.Fatal(err)
	}
	cores := g.NodesOfKind(topo.KindCoreRouter)
	dep.AddMiddlebox(cores[0], "fw1", policy.FuncFW)
	dep.AddMiddlebox(cores[1], "ids1", policy.FuncIDS)

	tbl := policy.NewTable()
	d := policy.NewDescriptor()
	d.DstPort = netaddr.SinglePort(80)
	tbl.Add(d, policy.ActionList{policy.FuncFW, policy.FuncIDS})

	ap := route.NewAllPairs(g, route.RouterTransitOnly(g))
	opts.K = map[policy.FuncType]int{policy.FuncFW: 1, policy.FuncIDS: 1}
	ctl := controller.New(dep, ap, tbl, opts)
	upd, err := ctl.NewPipeline(controller.PipelineOptions{}).Recompute(nil)
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := ctl.BuildNodesFromPlan(upd.Plan)
	if err != nil {
		t.Fatal(err)
	}

	rt := live.NewRuntime()
	t.Cleanup(rt.Close)
	devices := make(map[topo.NodeID]*live.Device)
	for id, n := range nodes {
		dev, err := rt.AddDevice(n)
		if err != nil {
			t.Fatal(err)
		}
		devices[id] = dev
	}
	// One sink covering the destination hosts of subnet 2.
	addrs := make([]netaddr.Addr, 0, 8)
	for h := 1; h <= 8; h++ {
		addrs = append(addrs, topo.HostAddr(2, h))
	}
	sink, err := rt.AddSink(addrs...)
	if err != nil {
		t.Fatal(err)
	}
	return &liveBed{rt: rt, dep: dep, devices: devices, sink: sink, tbl: tbl}
}

func liveFlow(n uint16) netaddr.FiveTuple {
	return netaddr.FiveTuple{
		Src: topo.HostAddr(1, 1), Dst: topo.HostAddr(2, 1),
		SrcPort: 30000 + n, DstPort: 80, Proto: netaddr.ProtoTCP,
	}
}

func TestLiveEndToEndChain(t *testing.T) {
	b := newLiveBed(t, controller.Options{Strategy: enforce.HotPotato})
	proxyID, _ := b.dep.ProxyFor(1)
	proxyAddr := b.dep.AddrOf(proxyID)

	ft := liveFlow(1)
	const n = 5
	for i := 0; i < n; i++ {
		p := packet.New(ft, 32)
		p.Payload = make([]byte, 32)
		if err := b.rt.Inject(proxyAddr, p); err != nil {
			t.Fatal(err)
		}
	}
	if !live.WaitUntil(3*time.Second, func() bool { return b.sink.Received() >= n }) {
		t.Fatalf("sink received %d of %d", b.sink.Received(), n)
	}
	if got := b.sink.FlowCount(ft); got != n {
		t.Errorf("flow count = %d, want %d", got, n)
	}
	enc, lab := b.sink.Anomalies()
	if enc != 0 || lab != 0 {
		t.Errorf("delivered packets still encapsulated (%d) or labeled (%d)", enc, lab)
	}
	// Both middleboxes processed every packet, over real sockets.
	for _, id := range b.dep.MBNodes {
		c := b.devices[id].Counters()
		if c.Load != n {
			t.Errorf("middlebox %v load = %d, want %d", id, c.Load, n)
		}
	}
	if b.rt.Blackholed.Load() != 0 {
		t.Errorf("blackholed datagrams: %d", b.rt.Blackholed.Load())
	}
}

func TestLiveLabelSwitching(t *testing.T) {
	b := newLiveBed(t, controller.Options{Strategy: enforce.HotPotato, LabelSwitching: true})
	proxyID, _ := b.dep.ProxyFor(1)
	proxyAddr := b.dep.AddrOf(proxyID)
	proxyDev := b.devices[proxyID]
	ft := liveFlow(2)

	// First packet: tunneled; wait until the control message flips the
	// flow to label switching.
	if err := b.rt.Inject(proxyAddr, packet.New(ft, 16)); err != nil {
		t.Fatal(err)
	}
	if !live.WaitUntil(3*time.Second, func() bool { return proxyDev.Counters().ControlRx >= 1 }) {
		t.Fatalf("control message never arrived: %+v", proxyDev.Counters())
	}

	// Subsequent packets ride labels end to end over real sockets.
	const more = 4
	for i := 0; i < more; i++ {
		if err := b.rt.Inject(proxyAddr, packet.New(ft, 16)); err != nil {
			t.Fatal(err)
		}
	}
	if !live.WaitUntil(3*time.Second, func() bool { return b.sink.Received() >= 1+more }) {
		t.Fatalf("sink received %d", b.sink.Received())
	}
	c := proxyDev.Counters()
	if c.TunnelTx != 1 || c.LabelTx != more {
		t.Errorf("proxy counters: tunnel=%d label=%d, want 1/%d", c.TunnelTx, c.LabelTx, more)
	}
	enc, lab := b.sink.Anomalies()
	if enc != 0 || lab != 0 {
		t.Errorf("anomalous deliveries: enc=%d lab=%d", enc, lab)
	}
}

func TestLiveUnmatchedTrafficBypasses(t *testing.T) {
	b := newLiveBed(t, controller.Options{Strategy: enforce.HotPotato})
	proxyID, _ := b.dep.ProxyFor(1)
	ft := netaddr.FiveTuple{
		Src: topo.HostAddr(1, 1), Dst: topo.HostAddr(2, 2),
		SrcPort: 1000, DstPort: 4242, Proto: netaddr.ProtoUDP,
	}
	if err := b.rt.Inject(b.dep.AddrOf(proxyID), packet.New(ft, 8)); err != nil {
		t.Fatal(err)
	}
	if !live.WaitUntil(3*time.Second, func() bool { return b.sink.FlowCount(ft) >= 1 }) {
		t.Fatal("unmatched packet never delivered")
	}
	for _, id := range b.dep.MBNodes {
		if c := b.devices[id].Counters(); c.Load != 0 {
			t.Errorf("middlebox %v touched unmatched traffic", id)
		}
	}
}

func TestLiveBlackhole(t *testing.T) {
	b := newLiveBed(t, controller.Options{Strategy: enforce.HotPotato})
	proxyID, _ := b.dep.ProxyFor(1)
	// Destination address nobody registered: the proxy forwards plain,
	// the fabric blackholes.
	ft := netaddr.FiveTuple{
		Src: topo.HostAddr(1, 1), Dst: netaddr.MustParseAddr("203.0.113.1"),
		SrcPort: 1, DstPort: 9, Proto: netaddr.ProtoUDP,
	}
	if err := b.rt.Inject(b.dep.AddrOf(proxyID), packet.New(ft, 8)); err != nil {
		t.Fatal(err)
	}
	if !live.WaitUntil(3*time.Second, func() bool { return b.rt.Blackholed.Load() >= 1 }) {
		t.Error("blackhole not counted")
	}
}

func TestInjectUnknownEndpoint(t *testing.T) {
	rt := live.NewRuntime()
	defer rt.Close()
	if err := rt.Inject(netaddr.MustParseAddr("9.9.9.9"), packet.New(netaddr.FiveTuple{}, 1)); err == nil {
		t.Error("Inject to unknown endpoint should fail")
	}
}

func TestLossyFabricDegradesGracefully(t *testing.T) {
	b := newLiveBed(t, controller.Options{Strategy: enforce.HotPotato, LabelSwitching: true})
	b.rt.SetLossRate(1, 4) // drop 25% of datagrams
	proxyID, _ := b.dep.ProxyFor(1)
	proxyAddr := b.dep.AddrOf(proxyID)

	ft := liveFlow(60)
	const n = 40
	for i := 0; i < n; i++ {
		if err := b.rt.Inject(proxyAddr, packet.New(ft, 16)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Some packets die on the fabric, the rest arrive, nothing wedges and
	// nothing vanishes: every packet is delivered, or was dropped once by
	// the fabric, or was refused at a node for a label the lossy control
	// channel never set up. That is conservation, not a floor on
	// deliveries: shouldDrop drops the first datagram of every four sent,
	// this flow costs four datagrams a packet and the loop above sends in
	// lockstep, so which hop loses is a fixed phase — 20 of 40 arrive in
	// step, none at 1-in-3 — and a scheduling hiccup that shifts the phase
	// changes the count (8 of 40 has failed the old floor of 10).
	accounted := func() int64 {
		total := int64(b.sink.Received()) + b.rt.Dropped.Load()
		for _, d := range b.devices {
			total += d.Counters().LabelMiss
		}
		return total
	}
	if !live.WaitUntil(5*time.Second, func() bool { return accounted() >= n }) {
		t.Fatalf("%d of %d packets unaccounted for under 25%% loss (%d delivered, %d datagrams dropped)",
			n-accounted(), n, b.sink.Received(), b.rt.Dropped.Load())
	}
	if b.rt.Dropped.Load() == 0 {
		t.Error("loss injection dropped nothing")
	}
	if b.sink.Received() >= n {
		t.Error("no packets lost despite 25% loss")
	}
	enc, lab := b.sink.Anomalies()
	if enc != 0 || lab != 0 {
		t.Errorf("anomalous deliveries under loss: enc=%d lab=%d", enc, lab)
	}
	b.rt.SetLossRate(0, 1) // restore
}

func TestSetLossRateValidation(t *testing.T) {
	rt := live.NewRuntime()
	defer rt.Close()
	rt.SetLossRate(-1, 0) // nonsense resets to lossless
	if rt.Dropped.Load() != 0 {
		t.Error("fresh runtime dropped something")
	}
}
