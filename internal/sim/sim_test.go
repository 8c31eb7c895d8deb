package sim_test

import (
	"math/rand"
	"testing"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/netaddr"
	"sdme/internal/nf"
	"sdme/internal/ospf"
	"sdme/internal/policy"
	"sdme/internal/route"
	"sdme/internal/sim"
	"sdme/internal/topo"
)

func TestEngineOrdering(t *testing.T) {
	e := sim.NewEngine()
	var got []int
	e.After(30, func() { got = append(got, 3) })
	e.After(10, func() { got = append(got, 1) })
	e.After(20, func() { got = append(got, 2) })
	// Ties run FIFO.
	e.After(10, func() { got = append(got, 11) })
	if n := e.Run(0); n != 4 {
		t.Fatalf("processed %d events", n)
	}
	want := []int{1, 11, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Errorf("Now = %d", e.Now())
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := sim.NewEngine()
	ran := 0
	e.After(5, func() { ran++ })
	e.After(50, func() { ran++ })
	if n := e.Run(10); n != 1 || ran != 1 {
		t.Fatalf("Run(10) processed %d", n)
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d", e.Pending())
	}
	e.Run(0)
	if ran != 2 {
		t.Error("drain did not run remaining events")
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := sim.NewEngine()
	hits := 0
	e.After(1, func() {
		e.After(1, func() { hits++ })
	})
	e.Run(0)
	if hits != 1 {
		t.Error("nested event did not run")
	}
	if e.Events() != 2 {
		t.Errorf("Events = %d", e.Events())
	}
}

// simBed is a full simulation testbed over a small campus.
type simBed struct {
	g     *topo.Graph
	dep   *enforce.Deployment
	ap    *route.AllPairs
	dom   *ospf.Domain
	tbl   *policy.Table
	ctl   *controller.Controller
	pipe  *controller.Pipeline
	nodes map[topo.NodeID]*enforce.Node
	nw    *sim.Network
}

// buildNodes compiles a controller's first plan (no measurements) and
// materializes a fresh set of nodes from it.
func buildNodes(t *testing.T, ctl *controller.Controller) (*controller.Pipeline, map[topo.NodeID]*enforce.Node) {
	t.Helper()
	pipe := ctl.NewPipeline(controller.PipelineOptions{})
	upd, err := pipe.Recompute(nil)
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := ctl.BuildNodesFromPlan(upd.Plan)
	if err != nil {
		t.Fatal(err)
	}
	return pipe, nodes
}

// recompute runs one turn of the control loop in process: re-plan over
// meas, then apply the deltas to the bed's nodes in place.
func (b *simBed) recompute(t *testing.T, meas controller.Measurements) *controller.PlanUpdate {
	t.Helper()
	upd, err := b.pipe.Recompute(meas)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.pipe.Apply(b.nodes, upd); err != nil {
		t.Fatal(err)
	}
	return upd
}

func newSimBed(t *testing.T, opts controller.Options) *simBed {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	cfg := topo.CampusConfig{Gateways: 2, CoreRouters: 4, EdgeRouters: 3, WithProxies: true}
	g := topo.Campus(cfg, rng)
	dep, err := enforce.NewDeployment(g)
	if err != nil {
		t.Fatal(err)
	}
	cores := g.NodesOfKind(topo.KindCoreRouter)
	dep.AddMiddlebox(cores[0], "fw1", policy.FuncFW)
	dep.AddMiddlebox(cores[2], "fw2", policy.FuncFW)
	dep.AddMiddlebox(cores[1], "ids1", policy.FuncIDS)
	dep.AddMiddlebox(cores[3], "ids2", policy.FuncIDS)

	tbl := policy.NewTable()
	d := policy.NewDescriptor()
	d.DstPort = netaddr.SinglePort(80)
	tbl.Add(d, policy.ActionList{policy.FuncFW, policy.FuncIDS})

	dom := ospf.NewDomain(g)
	dom.Converge()
	ap := route.NewAllPairs(g, route.RouterTransitOnly(g))
	if opts.K == nil {
		opts.K = map[policy.FuncType]int{policy.FuncFW: 2, policy.FuncIDS: 2}
	}
	ctl := controller.New(dep, ap, tbl, opts)
	pipe, nodes := buildNodes(t, ctl)
	return &simBed{
		g: g, dep: dep, ap: ap, dom: dom, tbl: tbl, ctl: ctl, pipe: pipe, nodes: nodes,
		nw: sim.New(g, dom, dep, nodes),
	}
}

func flowTuple(src, dst int, port uint16, n uint16) netaddr.FiveTuple {
	return netaddr.FiveTuple{
		Src: topo.HostAddr(src, 1+int(n)%100), Dst: topo.HostAddr(dst, 1+int(n)%100),
		SrcPort: 20000 + n, DstPort: port, Proto: netaddr.ProtoTCP,
	}
}

func TestEndToEndDelivery(t *testing.T) {
	b := newSimBed(t, controller.Options{Strategy: enforce.HotPotato})
	ft := flowTuple(1, 2, 80, 1)
	if err := b.nw.InjectFlow(ft, 10, 512, 0, 100); err != nil {
		t.Fatal(err)
	}
	b.nw.Run(0)
	s := b.nw.Stats()
	if s.PacketsInjected != 10 {
		t.Errorf("injected = %d", s.PacketsInjected)
	}
	if s.Delivered != 10 {
		t.Errorf("delivered = %d of 10 (stats %+v)", s.Delivered, s)
	}
	if s.EnforcementErrors != 0 || s.DroppedNoRoute != 0 || s.DroppedTTL != 0 {
		t.Errorf("failures: %+v", s)
	}
	// Each packet crossed one FW and one IDS.
	loads := b.nw.MiddleboxLoads()
	var fw, ids int64
	for _, id := range b.dep.Providers(policy.FuncFW) {
		fw += loads[id]
	}
	for _, id := range b.dep.Providers(policy.FuncIDS) {
		ids += loads[id]
	}
	if fw != 10 || ids != 10 {
		t.Errorf("fw=%d ids=%d, want 10 each", fw, ids)
	}
	if s.PacketHops == 0 {
		t.Error("no router hops counted")
	}
}

func TestUnmatchedFlowBypassesMiddleboxes(t *testing.T) {
	b := newSimBed(t, controller.Options{Strategy: enforce.HotPotato})
	if err := b.nw.InjectFlow(flowTuple(1, 3, 9999, 1), 5, 256, 0, 10); err != nil {
		t.Fatal(err)
	}
	b.nw.Run(0)
	if got := b.nw.Stats().Delivered; got != 5 {
		t.Errorf("delivered = %d", got)
	}
	for id, l := range b.nw.MiddleboxLoads() {
		if l != 0 {
			t.Errorf("middlebox %v loaded %d by permit traffic", id, l)
		}
	}
}

func TestNoRouteDrop(t *testing.T) {
	b := newSimBed(t, controller.Options{Strategy: enforce.HotPotato})
	ft := netaddr.FiveTuple{
		Src: topo.HostAddr(1, 1), Dst: netaddr.MustParseAddr("203.0.113.7"),
		SrcPort: 20000, DstPort: 9999, Proto: netaddr.ProtoTCP,
	}
	if err := b.nw.InjectFlow(ft, 3, 100, 0, 10); err != nil {
		t.Fatal(err)
	}
	b.nw.Run(0)
	if got := b.nw.Stats().DroppedNoRoute; got != 3 {
		t.Errorf("DroppedNoRoute = %d, want 3", got)
	}
}

func TestSimMatchesEvaluatorLoads(t *testing.T) {
	// The packet-level simulator and the analytic evaluator must agree
	// on per-middlebox loads (the property DESIGN.md leans on).
	opts := controller.Options{Strategy: enforce.Random, HashSeed: 31}
	b := newSimBed(t, opts)
	rng := rand.New(rand.NewSource(8))

	var demands []enforce.FlowDemand
	for i := 0; i < 40; i++ {
		src := 1 + rng.Intn(3)
		dst := 1 + rng.Intn(2)
		if dst >= src {
			dst++
		}
		ft := flowTuple(src, dst, 80, uint16(rng.Intn(30000)))
		pkts := 1 + rng.Intn(6)
		demands = append(demands, enforce.FlowDemand{Tuple: ft, Packets: int64(pkts)})
		if err := b.nw.InjectFlow(ft, pkts, 200, int64(i)*50, 25); err != nil {
			t.Fatal(err)
		}
	}
	b.nw.Run(0)
	simLoads := b.nw.MiddleboxLoads()

	_, nodes2 := buildNodes(t, b.ctl)
	report, err := enforce.EvaluateFlows(nodes2, b.dep, b.ap, demands)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range b.dep.MBNodes {
		if simLoads[id] != report.Loads[id] {
			t.Errorf("middlebox %v: sim %d vs evaluator %d", id, simLoads[id], report.Loads[id])
		}
	}
}

func TestLabelSwitchingInSim(t *testing.T) {
	b := newSimBed(t, controller.Options{Strategy: enforce.HotPotato, LabelSwitching: true})
	ft := flowTuple(1, 2, 80, 7)
	// Space packets out enough that the control message returns before
	// the second packet leaves.
	if err := b.nw.InjectFlow(ft, 5, 512, 0, 5000); err != nil {
		t.Fatal(err)
	}
	b.nw.Run(0)
	s := b.nw.Stats()
	if s.Delivered != 5 {
		t.Fatalf("delivered = %d (stats %+v)", s.Delivered, s)
	}
	if s.ControlMessages != 1 {
		t.Errorf("controls = %d, want 1", s.ControlMessages)
	}
	// First packet tunneled (+20B overhead), rest label-switched: bytes
	// delivered are identical (label switching restores the original
	// packet), but the proxy's counters tell the story.
	srcProxy, _ := b.dep.ProxyFor(1)
	c := b.nodes[srcProxy].Counters
	if c.TunnelTx != 1 || c.LabelTx != 4 {
		t.Errorf("proxy counters: tunnel=%d label=%d", c.TunnelTx, c.LabelTx)
	}
}

func TestFragmentationAvoidedByLabelSwitching(t *testing.T) {
	// Packets sized exactly at the MTU: IP-over-IP pushes them over
	// (fragmentation), label-switched packets fit. This is the §III-E
	// claim, measured.
	run := func(labelSwitching bool) sim.Stats {
		b := newSimBed(t, controller.Options{Strategy: enforce.HotPotato, LabelSwitching: labelSwitching})
		ft := flowTuple(1, 2, 80, 9)
		if err := b.nw.InjectFlow(ft, 6, 1480, 0, 5000); err != nil {
			t.Fatal(err)
		}
		b.nw.Run(0)
		return b.nw.Stats()
	}
	plain := run(false)
	labeled := run(true)
	if plain.FragmentsCreated == 0 {
		t.Fatalf("tunneled oversize packets did not fragment: %+v", plain)
	}
	if labeled.FragmentsCreated >= plain.FragmentsCreated {
		t.Errorf("label switching did not reduce fragmentation: %d vs %d",
			labeled.FragmentsCreated, plain.FragmentsCreated)
	}
	// Only the first (tunneled) packet of the flow fragments under label
	// switching.
	if labeled.Delivered != 6 || plain.Delivered != 6 {
		t.Errorf("deliveries: plain %d, labeled %d", plain.Delivered, labeled.Delivered)
	}
}

func TestReconvergenceKeepsEnforcementWorking(t *testing.T) {
	b := newSimBed(t, controller.Options{Strategy: enforce.HotPotato})
	// Fail one core-gateway link and re-converge; traffic must still be
	// enforced and delivered over the new paths.
	var failed bool
	for i := 0; i < b.g.NumLinks(); i++ {
		l := b.g.Link(i)
		if b.g.Node(l.A).Kind == topo.KindCoreRouter && b.g.Node(l.B).Kind == topo.KindGateway {
			b.dom.FailLink(i)
			failed = true
			break
		}
	}
	if !failed {
		t.Fatal("no core-gateway link found")
	}
	b.dom.Converge()

	if err := b.nw.InjectFlow(flowTuple(1, 2, 80, 3), 5, 512, 0, 100); err != nil {
		t.Fatal(err)
	}
	b.nw.Run(0)
	s := b.nw.Stats()
	if s.Delivered != 5 || s.DroppedNoRoute != 0 {
		t.Errorf("after failover: %+v", s)
	}
}

func TestFirewallDropCountsInSim(t *testing.T) {
	b := newSimBed(t, controller.Options{Strategy: enforce.HotPotato})
	deny := policy.NewDescriptor()
	deny.Src = topo.SubnetPrefix(1)
	for _, id := range b.dep.Providers(policy.FuncFW) {
		fw := b.nodes[id].Funcs[policy.FuncFW].(*nf.Firewall)
		fw.AddRule(nf.FirewallRule{Desc: deny, Action: nf.Deny})
	}
	if err := b.nw.InjectFlow(flowTuple(1, 2, 80, 4), 4, 256, 0, 10); err != nil {
		t.Fatal(err)
	}
	b.nw.Run(0)
	s := b.nw.Stats()
	if s.DroppedPolicy != 4 {
		t.Errorf("DroppedPolicy = %d, want 4", s.DroppedPolicy)
	}
	if s.Delivered != 0 {
		t.Errorf("denied packets delivered: %d", s.Delivered)
	}
}

func TestOffPathProxyLoopbackAccounting(t *testing.T) {
	// Same deployment, off-path proxies: traffic still enforced and
	// delivered, with one loopback accounted per outbound packet.
	rng := rand.New(rand.NewSource(5))
	g := topo.Campus(topo.CampusConfig{
		Gateways: 2, CoreRouters: 4, EdgeRouters: 3,
		WithProxies: true, OffPathProxies: true,
	}, rng)
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

	dom := ospf.NewDomain(g)
	dom.Converge()
	ap := route.NewAllPairs(g, route.RouterTransitOnly(g))
	ctl := controller.New(dep, ap, tbl, controller.Options{Strategy: enforce.HotPotato})
	_, nodes := buildNodes(t, ctl)
	nw := sim.New(g, dom, dep, nodes)
	if err := nw.InjectFlow(flowTuple(1, 2, 80, 1), 7, 256, 0, 50); err != nil {
		t.Fatal(err)
	}
	nw.Run(0)
	s := nw.Stats()
	if s.Delivered != 7 {
		t.Errorf("delivered = %d (stats %+v)", s.Delivered, s)
	}
	if s.ProxyLoopbacks != 7 {
		t.Errorf("ProxyLoopbacks = %d, want 7", s.ProxyLoopbacks)
	}
}

func TestLabelSoftStateExpiryMidFlow(t *testing.T) {
	// Tight label TTL: label entries expire between packets, so
	// label-switched packets arrive at middleboxes with no matching
	// entry and are counted as label misses (the §III-E soft-state
	// failure mode), without crashing enforcement.
	b := newSimBed(t, controller.Options{
		Strategy:       enforce.HotPotato,
		LabelSwitching: true,
		LabelTTL:       2000, // µs; far shorter than the packet gap below
	})
	ft := flowTuple(1, 2, 80, 5)
	if err := b.nw.InjectFlow(ft, 4, 256, 0, 50000); err != nil {
		t.Fatal(err)
	}
	b.nw.Run(0)
	var misses int64
	for _, id := range b.dep.MBNodes {
		misses += b.nodes[id].Counters.LabelMiss
	}
	if misses == 0 {
		t.Error("expected label misses with a tight label TTL")
	}
	if b.nw.Stats().Delivered == 0 {
		t.Error("nothing delivered at all")
	}
}

func TestFlowSoftStateExpiryReclassifies(t *testing.T) {
	// Tight flow TTL: the proxy's flow entry dies between packets and
	// the next packet is classified again (and, with label switching
	// off, correctly re-tunneled).
	b := newSimBed(t, controller.Options{
		Strategy: enforce.HotPotato,
		FlowTTL:  2000,
	})
	ft := flowTuple(1, 2, 80, 6)
	if err := b.nw.InjectFlow(ft, 3, 256, 0, 50000); err != nil {
		t.Fatal(err)
	}
	b.nw.Run(0)
	proxyID, _ := b.dep.ProxyFor(1)
	if got := b.nodes[proxyID].Counters.Classified; got != 3 {
		t.Errorf("classifications = %d, want 3 (every packet after expiry)", got)
	}
	if b.nw.Stats().Delivered != 3 {
		t.Errorf("delivered = %d", b.nw.Stats().Delivered)
	}
}

func TestBandwidthTransmissionDelay(t *testing.T) {
	// Two routers joined by a slow link: arrival time must include the
	// serialization delay size*8/bw on top of propagation.
	g := topo.NewGraph()
	a := g.AddNode(topo.Node{Name: "a", Kind: topo.KindEdgeRouter, Attach: topo.InvalidNode,
		Addr: netaddr.MustParseAddr("172.16.1.1"), Subnet: topo.SubnetPrefix(1)})
	bNode := g.AddNode(topo.Node{Name: "b", Kind: topo.KindEdgeRouter, Attach: topo.InvalidNode,
		Addr: netaddr.MustParseAddr("172.16.1.2"), Subnet: topo.SubnetPrefix(2)})
	g.AddLink(topo.Link{A: a, B: bNode, DelayUS: 1000, BandwidthBPS: 1_000_000}) // 1 Mbps
	prx := topo.AttachProxy(g, a, 1)
	_ = topo.AttachProxy(g, bNode, 2)

	dep, err := enforce.NewDeployment(g)
	if err != nil {
		t.Fatal(err)
	}
	tbl := policy.NewTable() // no policies: plain forwarding
	dom := ospf.NewDomain(g)
	dom.Converge()
	ap := route.NewAllPairs(g, route.RouterTransitOnly(g))
	ctl := controller.New(dep, ap, tbl, controller.Options{Strategy: enforce.HotPotato})
	_, nodes := buildNodes(t, ctl)
	nw := sim.New(g, dom, dep, nodes)
	_ = prx

	// 1000-byte payload => 1020B on the wire => 8160 bits / 1 Mbps =
	// 8160us serialization + 1000us propagation on the a-b link, plus
	// the 20us proxy and delivery device links.
	ft := netaddr.FiveTuple{Src: topo.HostAddr(1, 1), Dst: topo.HostAddr(2, 1), DstPort: 9, Proto: netaddr.ProtoUDP}
	if err := nw.InjectFlow(ft, 1, 1000, 0, 0); err != nil {
		t.Fatal(err)
	}
	nw.Run(0)
	if nw.Stats().Delivered != 1 {
		t.Fatalf("not delivered: %+v", nw.Stats())
	}
	if now := nw.Engine.Now(); now < 9180 || now > 9500 {
		t.Errorf("delivery at %dus, want ≈9200us (propagation+serialization)", now)
	}
}
