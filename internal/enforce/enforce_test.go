package enforce_test

import (
	"math/rand"
	"strings"
	"testing"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/netaddr"
	"sdme/internal/nf"
	"sdme/internal/packet"
	"sdme/internal/policy"
	"sdme/internal/route"
	"sdme/internal/topo"
)

// fabric is an in-memory network: it delivers packets straight to the
// node owning the outermost destination address, and collects packets
// addressed to anything else as "delivered to destination". Delivery is
// synchronous, so a chain unwinds within one HandleOutbound call.
type fabric struct {
	t         *testing.T
	nodes     map[netaddr.Addr]*enforce.Node
	delivered []*packet.Packet
	controls  int
	now       int64
	// visits records the middlebox nodes each flow's packets touched, in
	// order.
	visits map[netaddr.FiveTuple][]topo.NodeID
}

var _ enforce.Forwarder = (*fabric)(nil)

func newFabric(t *testing.T, nodes map[topo.NodeID]*enforce.Node) *fabric {
	f := &fabric{t: t, nodes: make(map[netaddr.Addr]*enforce.Node), visits: make(map[netaddr.FiveTuple][]topo.NodeID)}
	for _, n := range nodes {
		f.nodes[n.Addr] = n
	}
	return f
}

func (f *fabric) Send(from *enforce.Node, pkt *packet.Packet) {
	dst := pkt.OutermostDst()
	if n, ok := f.nodes[dst]; ok {
		if n.IsProxy {
			f.t.Fatalf("packet addressed to a proxy: %v", pkt)
		}
		f.visits[flowKeyOf(pkt)] = append(f.visits[flowKeyOf(pkt)], n.ID)
		if err := n.HandleArrival(pkt, f.now, f); err != nil {
			f.t.Fatalf("HandleArrival at %v: %v", n.ID, err)
		}
		return
	}
	f.delivered = append(f.delivered, pkt)
}

// flowKeyOf normalizes to the inner tuple's src+ports, because label
// switching rewrites the destination address.
func flowKeyOf(pkt *packet.Packet) netaddr.FiveTuple {
	ft := pkt.FiveTuple()
	ft.Dst = 0
	return ft
}

func (f *fabric) SendControl(from *enforce.Node, to netaddr.Addr, flow netaddr.FiveTuple) {
	f.controls++
	n, ok := f.nodes[to]
	if !ok || !n.IsProxy {
		f.t.Fatalf("control packet to non-proxy %v", to)
	}
	n.HandleControl(flow, f.now)
}

// testbed bundles a small campus deployment with controller-built nodes.
type testbed struct {
	g     *topo.Graph
	dep   *enforce.Deployment
	ap    *route.AllPairs
	tbl   *policy.Table
	ctl   *controller.Controller
	nodes map[topo.NodeID]*enforce.Node
}

// newTestbed builds: small campus (4 cores, 3 edges+proxies), middleboxes
// 2×FW, 2×IDS, 1×WP, 1×TM, and the given policies.
func newTestbed(t *testing.T, opts controller.Options, buildPolicies func(tbl *policy.Table)) *testbed {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	g := topo.Campus(topo.CampusConfig{Gateways: 2, CoreRouters: 4, EdgeRouters: 3, WithProxies: true}, rng)
	dep, err := enforce.NewDeployment(g)
	if err != nil {
		t.Fatal(err)
	}
	cores := g.NodesOfKind(topo.KindCoreRouter)
	dep.AddMiddlebox(cores[0], "fw1", policy.FuncFW)
	dep.AddMiddlebox(cores[2], "fw2", policy.FuncFW)
	dep.AddMiddlebox(cores[1], "ids1", policy.FuncIDS)
	dep.AddMiddlebox(cores[3], "ids2", policy.FuncIDS)
	dep.AddMiddlebox(cores[1], "wp1", policy.FuncWP)
	dep.AddMiddlebox(cores[2], "tm1", policy.FuncTM)

	tbl := policy.NewTable()
	buildPolicies(tbl)

	ap := route.NewAllPairs(g, route.RouterTransitOnly(g))
	if opts.K == nil {
		opts.K = map[policy.FuncType]int{policy.FuncFW: 2, policy.FuncIDS: 2, policy.FuncWP: 1, policy.FuncTM: 1}
	}
	ctl := controller.New(dep, ap, tbl, opts)
	return &testbed{g: g, dep: dep, ap: ap, tbl: tbl, ctl: ctl, nodes: buildNodes(t, ctl)}
}

// buildNodes compiles the controller's first plan (no measurements) and
// materializes a fresh set of nodes from it.
func buildNodes(t *testing.T, ctl *controller.Controller) map[topo.NodeID]*enforce.Node {
	t.Helper()
	upd, err := ctl.NewPipeline(controller.PipelineOptions{}).Recompute(nil)
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := ctl.BuildNodesFromPlan(upd.Plan)
	if err != nil {
		t.Fatal(err)
	}
	return nodes
}

func (tb *testbed) proxy(t *testing.T, subnet int) *enforce.Node {
	t.Helper()
	id, ok := tb.dep.ProxyFor(subnet)
	if !ok {
		t.Fatalf("no proxy for subnet %d", subnet)
	}
	return tb.nodes[id]
}

func webPolicy(tbl *policy.Table) {
	d := policy.NewDescriptor()
	d.DstPort = netaddr.SinglePort(80)
	tbl.Add(d, policy.ActionList{policy.FuncFW, policy.FuncIDS})
}

func flowFromSubnet(src, dst int, dstPort uint16) netaddr.FiveTuple {
	return netaddr.FiveTuple{
		Src: topo.HostAddr(src, 1), Dst: topo.HostAddr(dst, 1),
		SrcPort: 30000, DstPort: dstPort, Proto: netaddr.ProtoTCP,
	}
}

func TestDeploymentDiscovery(t *testing.T) {
	tb := newTestbed(t, controller.Options{Strategy: enforce.HotPotato}, webPolicy)
	if tb.dep.NumSubnets() != 3 {
		t.Errorf("subnets = %d, want 3", tb.dep.NumSubnets())
	}
	if got := len(tb.dep.Providers(policy.FuncFW)); got != 2 {
		t.Errorf("FW providers = %d, want 2", got)
	}
	if got := len(tb.dep.Functions()); got != 4 {
		t.Errorf("functions = %d, want 4", got)
	}
	for i := 1; i <= 3; i++ {
		p, ok := tb.dep.ProxyFor(i)
		if !ok {
			t.Fatalf("no proxy for subnet %d", i)
		}
		if tb.dep.SubnetIndexOf(tb.dep.AddrOf(p)) != i {
			t.Errorf("proxy %d subnet mapping broken", i)
		}
	}
	if _, ok := tb.dep.ProxyFor(99); ok {
		t.Error("ProxyFor out of range should fail")
	}
}

func TestHotPotatoChainTraversal(t *testing.T) {
	tb := newTestbed(t, controller.Options{Strategy: enforce.HotPotato}, webPolicy)
	f := newFabric(t, tb.nodes)
	proxy := tb.proxy(t, 1)
	ft := flowFromSubnet(1, 2, 80)
	pkt := packet.New(ft, 100)
	if err := proxy.HandleOutbound(pkt, 0, f); err != nil {
		t.Fatal(err)
	}

	// The packet visited exactly one FW then one IDS, each the closest.
	visits := f.visits[flowKeyOf(pkt)]
	if len(visits) != 2 {
		t.Fatalf("visited %v, want FW then IDS", visits)
	}
	wantFW := tb.ap.Closest(proxy.ID, tb.dep.Providers(policy.FuncFW))
	if visits[0] != wantFW {
		t.Errorf("first hop %v, want closest FW %v", visits[0], wantFW)
	}
	wantIDS := tb.ap.Closest(visits[0], tb.dep.Providers(policy.FuncIDS))
	if visits[1] != wantIDS {
		t.Errorf("second hop %v, want closest IDS %v", visits[1], wantIDS)
	}

	// Delivered to the real destination, unencapsulated.
	if len(f.delivered) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(f.delivered))
	}
	got := f.delivered[0]
	if got.IsEncapsulated() {
		t.Error("delivered packet still encapsulated")
	}
	if got.Inner.Dst != ft.Dst {
		t.Errorf("delivered to %v, want %v", got.Inner.Dst, ft.Dst)
	}
	// Loads counted once per middlebox.
	if tb.nodes[visits[0]].Counters.Load != 1 || tb.nodes[visits[1]].Counters.Load != 1 {
		t.Error("middlebox loads wrong")
	}
}

func TestPermitAndNullForwardPlain(t *testing.T) {
	tb := newTestbed(t, controller.Options{Strategy: enforce.HotPotato}, func(tbl *policy.Table) {
		// Permit web within subnet 1<->2; no policy for anything else.
		d := policy.NewDescriptor()
		d.Src = topo.SubnetPrefix(1)
		d.DstPort = netaddr.SinglePort(80)
		tbl.Add(d, nil)
	})
	f := newFabric(t, tb.nodes)
	proxy := tb.proxy(t, 1)

	// Permit: matched, forwarded plain.
	if err := proxy.HandleOutbound(packet.New(flowFromSubnet(1, 2, 80), 10), 0, f); err != nil {
		t.Fatal(err)
	}
	// Null: unmatched, forwarded plain, null entry cached.
	unmatched := flowFromSubnet(1, 2, 9999)
	if err := proxy.HandleOutbound(packet.New(unmatched, 10), 0, f); err != nil {
		t.Fatal(err)
	}
	if len(f.delivered) != 2 {
		t.Fatalf("delivered %d, want 2", len(f.delivered))
	}
	if proxy.Counters.PlainTx != 2 || proxy.Counters.TunnelTx != 0 {
		t.Errorf("counters: %+v", proxy.Counters)
	}
	// Second packet of the unmatched flow hits the null entry: no
	// classification.
	before := proxy.Counters.Classified
	if err := proxy.HandleOutbound(packet.New(unmatched, 10), 1, f); err != nil {
		t.Fatal(err)
	}
	if proxy.Counters.Classified != before {
		t.Error("null entry did not suppress classification")
	}
	if proxy.FlowTable().Stats().NullHits != 1 {
		t.Errorf("flow table stats: %+v", proxy.FlowTable().Stats())
	}
}

func TestFlowTableSuppressesClassification(t *testing.T) {
	tb := newTestbed(t, controller.Options{Strategy: enforce.HotPotato}, webPolicy)
	f := newFabric(t, tb.nodes)
	proxy := tb.proxy(t, 1)
	ft := flowFromSubnet(1, 3, 80)
	for i := 0; i < 5; i++ {
		if err := proxy.HandleOutbound(packet.New(ft, 10), int64(i), f); err != nil {
			t.Fatal(err)
		}
	}
	if proxy.Counters.Classified != 1 {
		t.Errorf("classified %d times, want 1 (flow table must cache)", proxy.Counters.Classified)
	}
	// Middleboxes cache too.
	for _, id := range tb.dep.MBNodes {
		n := tb.nodes[id]
		if n.Counters.Load > 0 && n.Counters.Classified != 1 {
			t.Errorf("middlebox %v classified %d times for one flow", id, n.Counters.Classified)
		}
	}
}

func TestLabelSwitchingLifecycle(t *testing.T) {
	tb := newTestbed(t, controller.Options{Strategy: enforce.HotPotato, LabelSwitching: true}, webPolicy)
	f := newFabric(t, tb.nodes)
	proxy := tb.proxy(t, 1)
	ft := flowFromSubnet(1, 2, 80)

	// First packet: tunneled along the chain, label tables installed,
	// control message returned.
	if err := proxy.HandleOutbound(packet.New(ft, 100), 0, f); err != nil {
		t.Fatal(err)
	}
	if f.controls != 1 {
		t.Fatalf("controls = %d, want 1", f.controls)
	}
	if proxy.Counters.TunnelTx != 1 || proxy.Counters.LabelTx != 0 {
		t.Fatalf("first packet counters: %+v", proxy.Counters)
	}
	visits1 := append([]topo.NodeID(nil), f.visits[flowKeyOf(packet.New(ft, 0))]...)

	// Each visited middlebox holds a label entry; the tail entry knows
	// the destination.
	for i, id := range visits1 {
		lt := tb.nodes[id].LabelTable()
		if lt.Len() != 1 {
			t.Fatalf("middlebox %v label table has %d entries, want 1", id, lt.Len())
		}
		if i == len(visits1)-1 && lt.Stats().Inserted != 1 {
			t.Fatalf("tail stats: %+v", lt.Stats())
		}
	}

	// Second packet: label-switched (no outer header) along the SAME
	// middlebox path, delivered to the true destination, label cleared.
	if err := proxy.HandleOutbound(packet.New(ft, 100), 1, f); err != nil {
		t.Fatal(err)
	}
	if proxy.Counters.LabelTx != 1 {
		t.Fatalf("second packet not label-switched: %+v", proxy.Counters)
	}
	visits2 := f.visits[flowKeyOf(packet.New(ft, 0))]
	if len(visits2) != 2*len(visits1) {
		t.Fatalf("second packet visits: %v", visits2)
	}
	for i := range visits1 {
		if visits2[len(visits1)+i] != visits1[i] {
			t.Fatalf("label-switched path %v differs from tunneled path %v", visits2[len(visits1):], visits1)
		}
	}
	if len(f.delivered) != 2 {
		t.Fatalf("delivered %d, want 2", len(f.delivered))
	}
	got := f.delivered[1]
	if got.IsEncapsulated() {
		t.Error("label-switched packet delivered with outer header")
	}
	if got.Inner.Dst != ft.Dst {
		t.Errorf("delivered to %v, want %v (dst restore failed)", got.Inner.Dst, ft.Dst)
	}
	if got.Label() != 0 {
		t.Errorf("delivered packet still labeled: %d", got.Label())
	}
	// Label-switched packets are smaller on the wire than tunneled ones.
	if got.Size() != packet.HeaderLen+100 {
		t.Errorf("delivered size = %d", got.Size())
	}
}

func TestLabelSwitchingDisabledNeverLabels(t *testing.T) {
	tb := newTestbed(t, controller.Options{Strategy: enforce.HotPotato}, webPolicy)
	f := newFabric(t, tb.nodes)
	proxy := tb.proxy(t, 1)
	ft := flowFromSubnet(1, 2, 80)
	for i := 0; i < 3; i++ {
		if err := proxy.HandleOutbound(packet.New(ft, 100), int64(i), f); err != nil {
			t.Fatal(err)
		}
	}
	if f.controls != 0 {
		t.Error("control packets sent with label switching disabled")
	}
	if proxy.Counters.TunnelTx != 3 || proxy.Counters.LabelTx != 0 {
		t.Errorf("counters: %+v", proxy.Counters)
	}
}

func TestFirewallDropStopsChain(t *testing.T) {
	tb := newTestbed(t, controller.Options{Strategy: enforce.HotPotato}, webPolicy)
	// Install a deny rule for subnet 1 on every firewall.
	deny := policy.NewDescriptor()
	deny.Src = topo.SubnetPrefix(1)
	for _, id := range tb.dep.Providers(policy.FuncFW) {
		fw := tb.nodes[id].Funcs[policy.FuncFW].(*nf.Firewall)
		fw.AddRule(nf.FirewallRule{Desc: deny, Action: nf.Deny})
	}
	f := newFabric(t, tb.nodes)
	if err := tb.proxy(t, 1).HandleOutbound(packet.New(flowFromSubnet(1, 2, 80), 10), 0, f); err != nil {
		t.Fatal(err)
	}
	if len(f.delivered) != 0 {
		t.Error("denied packet was delivered")
	}
	var drops int64
	for _, id := range tb.dep.Providers(policy.FuncFW) {
		drops += tb.nodes[id].Counters.Dropped
	}
	if drops != 1 {
		t.Errorf("drops = %d, want 1", drops)
	}
	// Traffic from subnet 2 still flows.
	if err := tb.proxy(t, 2).HandleOutbound(packet.New(flowFromSubnet(2, 3, 80), 10), 0, f); err != nil {
		t.Fatal(err)
	}
	if len(f.delivered) != 1 {
		t.Error("allowed packet was not delivered")
	}
}

func TestWebProxyServeStopsChain(t *testing.T) {
	tb := newTestbed(t, controller.Options{Strategy: enforce.HotPotato}, func(tbl *policy.Table) {
		d := policy.NewDescriptor()
		d.DstPort = netaddr.SinglePort(80)
		tbl.Add(d, policy.ActionList{policy.FuncWP, policy.FuncFW})
	})
	f := newFabric(t, tb.nodes)
	proxy := tb.proxy(t, 1)
	ft := flowFromSubnet(1, 2, 80)
	mk := func() *packet.Packet {
		p := packet.New(ft, 6)
		p.Payload = []byte("GET /x")
		return p
	}
	// First request: WP cache miss, continues to FW, delivered.
	if err := proxy.HandleOutbound(mk(), 0, f); err != nil {
		t.Fatal(err)
	}
	if len(f.delivered) != 1 {
		t.Fatal("first request should reach the server")
	}
	// Second identical request: WP cache hit, served locally.
	if err := proxy.HandleOutbound(mk(), 1, f); err != nil {
		t.Fatal(err)
	}
	if len(f.delivered) != 1 {
		t.Error("cache hit should not reach the server")
	}
	wp := tb.nodes[tb.dep.Providers(policy.FuncWP)[0]]
	if wp.Counters.Served != 1 {
		t.Errorf("served = %d, want 1", wp.Counters.Served)
	}
}

func TestRandStrategyIsPerFlowDeterministic(t *testing.T) {
	tb := newTestbed(t, controller.Options{Strategy: enforce.Random}, webPolicy)
	proxy := tb.proxy(t, 1)
	ft := flowFromSubnet(1, 2, 80)
	first, err := proxy.SelectNext(0, policy.FuncFW, ft)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		got, err := proxy.SelectNext(0, policy.FuncFW, ft)
		if err != nil || got != first {
			t.Fatal("Rand selection must be stable per flow")
		}
	}
	// Over many flows both firewalls get traffic.
	rng := rand.New(rand.NewSource(3))
	seen := map[topo.NodeID]bool{}
	for i := 0; i < 200; i++ {
		ftI := netaddr.FiveTuple{
			Src: topo.HostAddr(1, 1+rng.Intn(100)), Dst: topo.HostAddr(2, 1+rng.Intn(100)),
			SrcPort: uint16(20000 + rng.Intn(10000)), DstPort: 80, Proto: netaddr.ProtoTCP,
		}
		got, err := proxy.SelectNext(0, policy.FuncFW, ftI)
		if err != nil {
			t.Fatal(err)
		}
		seen[got] = true
	}
	if len(seen) != 2 {
		t.Errorf("Rand used %d of 2 firewalls", len(seen))
	}
}

func TestNoProviderError(t *testing.T) {
	tb := newTestbed(t, controller.Options{Strategy: enforce.HotPotato}, webPolicy)
	proxy := tb.proxy(t, 1)
	// A function type no middlebox implements.
	bogus := policy.FuncType(77)
	if _, err := proxy.SelectNext(0, bogus, flowFromSubnet(1, 2, 80)); err == nil {
		t.Error("expected error for unprovided function")
	}
	if proxy.Counters.NoProvider != 1 {
		t.Errorf("NoProvider = %d", proxy.Counters.NoProvider)
	}
}

func TestMisdirectedHandling(t *testing.T) {
	tb := newTestbed(t, controller.Options{Strategy: enforce.HotPotato}, webPolicy)
	f := newFabric(t, tb.nodes)
	proxy := tb.proxy(t, 1)
	mb := tb.nodes[tb.dep.MBNodes[0]]

	if err := mb.HandleOutbound(packet.New(flowFromSubnet(1, 2, 80), 1), 0, f); err == nil {
		t.Error("HandleOutbound on middlebox should error")
	}
	if err := proxy.HandleArrival(packet.New(flowFromSubnet(1, 2, 80), 1), 0, f); err == nil {
		t.Error("HandleArrival on proxy should error")
	}
	// Unlabeled plain packet at a middlebox.
	if err := mb.HandleArrival(packet.New(flowFromSubnet(1, 2, 80), 1), 0, f); err == nil {
		t.Error("unlabeled plain arrival should error")
	}
}

func TestMeasurements(t *testing.T) {
	tb := newTestbed(t, controller.Options{Strategy: enforce.HotPotato}, webPolicy)
	f := newFabric(t, tb.nodes)
	proxy := tb.proxy(t, 1)
	for i := 0; i < 7; i++ {
		if err := proxy.HandleOutbound(packet.New(flowFromSubnet(1, 2, 80), 10), int64(i), f); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := proxy.HandleOutbound(packet.New(flowFromSubnet(1, 3, 80), 10), int64(i), f); err != nil {
			t.Fatal(err)
		}
	}
	meas := proxy.Measurements()
	p := tb.tbl.All()[0]
	if got := meas[enforce.MeasKey{PolicyID: p.ID, SrcSubnet: 1, DstSubnet: 2}]; got != 7 {
		t.Errorf("T(1->2) = %d, want 7", got)
	}
	if got := meas[enforce.MeasKey{PolicyID: p.ID, SrcSubnet: 1, DstSubnet: 3}]; got != 3 {
		t.Errorf("T(1->3) = %d, want 3", got)
	}
	proxy.ResetMeasurements()
	if len(proxy.Measurements()) != 0 {
		t.Error("ResetMeasurements failed")
	}
}

func TestEvaluatorMatchesPacketDataplane(t *testing.T) {
	// The flow-level evaluator must produce exactly the same middlebox
	// loads as pushing every packet through the dataplane.
	for _, strat := range []enforce.Strategy{enforce.HotPotato, enforce.Random} {
		tb := newTestbed(t, controller.Options{Strategy: strat, HashSeed: 99}, webPolicy)
		f := newFabric(t, tb.nodes)
		rng := rand.New(rand.NewSource(11))

		var demands []enforce.FlowDemand
		for i := 0; i < 60; i++ {
			src := 1 + rng.Intn(3)
			dst := 1 + rng.Intn(2)
			if dst >= src {
				dst++
			}
			ft := netaddr.FiveTuple{
				Src: topo.HostAddr(src, 1+rng.Intn(50)), Dst: topo.HostAddr(dst, 1+rng.Intn(50)),
				SrcPort: uint16(20000 + rng.Intn(20000)), DstPort: 80, Proto: netaddr.ProtoTCP,
			}
			demands = append(demands, enforce.FlowDemand{Tuple: ft, Packets: int64(1 + rng.Intn(5))})
		}
		report, err := enforce.EvaluateFlows(tb.nodes, tb.dep, tb.ap, demands)
		if err != nil {
			t.Fatal(err)
		}

		// Fresh nodes for the packet run (the evaluator shares no state).
		nodes2 := buildNodes(t, tb.ctl)
		f = newFabric(t, nodes2)
		for _, d := range demands {
			srcSub := tb.dep.SubnetIndexOf(d.Tuple.Src)
			pid, _ := tb.dep.ProxyFor(srcSub)
			for k := int64(0); k < d.Packets; k++ {
				if err := nodes2[pid].HandleOutbound(packet.New(d.Tuple, 64), k, f); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, id := range tb.dep.MBNodes {
			if got, want := nodes2[id].Counters.Load, report.Loads[id]; got != want {
				t.Errorf("%v: middlebox %v packet-level load %d != evaluator load %d", strat, id, got, want)
			}
		}
	}
}

func TestEvaluateFlowsReporting(t *testing.T) {
	tb := newTestbed(t, controller.Options{Strategy: enforce.HotPotato}, webPolicy)
	demands := []enforce.FlowDemand{
		{Tuple: flowFromSubnet(1, 2, 80), Packets: 10},  // enforced
		{Tuple: flowFromSubnet(1, 2, 9999), Packets: 5}, // unmatched
		{Tuple: flowFromSubnet(2, 3, 80), Packets: 20},  // enforced
	}
	report, err := enforce.EvaluateFlows(tb.nodes, tb.dep, tb.ap, demands)
	if err != nil {
		t.Fatal(err)
	}
	if report.TotalPackets != 35 {
		t.Errorf("TotalPackets = %d", report.TotalPackets)
	}
	if report.Unenforced != 1 {
		t.Errorf("Unenforced = %d", report.Unenforced)
	}
	if got := report.MaxLoad(tb.dep, policy.FuncFW); got <= 0 || got > 30 {
		t.Errorf("FW max load = %d", got)
	}
	if report.MaxLoad(tb.dep, policy.FuncFW) < report.MinLoad(tb.dep, policy.FuncFW) {
		t.Error("max < min")
	}
	if got := report.LoadsOf(tb.dep, policy.FuncFW); len(got) != 2 {
		t.Errorf("LoadsOf FW = %v", got)
	}
	// FW and IDS each processed all 30 enforced packets in total.
	var fwTotal int64
	for _, l := range report.LoadsOf(tb.dep, policy.FuncFW) {
		fwTotal += l
	}
	if fwTotal != 30 {
		t.Errorf("total FW load = %d, want 30", fwTotal)
	}
	if report.AvgPathCost() <= 0 {
		t.Error("path cost missing")
	}
	if sl := report.SortedLoads(); len(sl) == 0 || sl[0].Load < sl[len(sl)-1].Load {
		t.Errorf("SortedLoads = %v", sl)
	}
}

func TestInstallRejectsDuplicateFunctions(t *testing.T) {
	tb := newTestbed(t, controller.Options{Strategy: enforce.HotPotato}, webPolicy)
	proxy := tb.proxy(t, 1)
	cfg := proxy.Config()
	bad := policy.NewTable()
	bad.Add(policy.NewDescriptor(), policy.ActionList{policy.FuncFW, policy.FuncIDS, policy.FuncFW})
	cfg.Policies = bad.All()
	if err := proxy.Install(cfg); err == nil {
		t.Error("duplicate function in chain must be rejected")
	}
}

func TestTraceFlowMatchesDataplane(t *testing.T) {
	tb := newTestbed(t, controller.Options{Strategy: enforce.Random, HashSeed: 13}, webPolicy)
	f := newFabric(t, tb.nodes)

	ft := flowFromSubnet(1, 2, 80)
	tr, err := enforce.TraceFlow(tb.nodes, tb.dep, tb.ap, ft)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Policy == nil || len(tr.Hops) != 2 {
		t.Fatalf("trace = %+v", tr)
	}
	if tr.Hops[0].Func != policy.FuncFW || tr.Hops[1].Func != policy.FuncIDS {
		t.Errorf("trace functions wrong: %v", tr)
	}

	// The packet dataplane must visit exactly the traced middleboxes.
	pkt := packet.New(ft, 64)
	proxy := tb.proxy(t, 1)
	if err := proxy.HandleOutbound(pkt, 0, f); err != nil {
		t.Fatal(err)
	}
	visits := f.visits[flowKeyOf(pkt)]
	if len(visits) != len(tr.Hops) {
		t.Fatalf("visited %v, traced %v", visits, tr.Hops)
	}
	for i := range visits {
		if visits[i] != tr.Hops[i].Node {
			t.Errorf("hop %d: visited %v, traced %v", i, visits[i], tr.Hops[i].Node)
		}
	}
	if tr.TotalCost() <= 0 {
		t.Error("trace cost missing")
	}
	if tr.String() == "" {
		t.Error("empty trace string")
	}
}

func TestTraceFlowUnmatched(t *testing.T) {
	tb := newTestbed(t, controller.Options{Strategy: enforce.HotPotato}, webPolicy)
	tr, err := enforce.TraceFlow(tb.nodes, tb.dep, tb.ap, flowFromSubnet(1, 2, 9999))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Policy != nil || len(tr.Hops) != 0 {
		t.Errorf("unmatched trace = %+v", tr)
	}
	if tr.TailCost <= 0 {
		t.Error("unmatched flow should still have a path to its destination")
	}
	if !strings.Contains(tr.String(), "no policy") {
		t.Errorf("trace string = %q", tr.String())
	}
}

func TestTraceFlowUnknownSubnet(t *testing.T) {
	tb := newTestbed(t, controller.Options{Strategy: enforce.HotPotato}, webPolicy)
	ft := netaddr.FiveTuple{Src: netaddr.MustParseAddr("203.0.113.5"), Dst: topo.HostAddr(2, 1), DstPort: 80, Proto: netaddr.ProtoTCP}
	if _, err := enforce.TraceFlow(tb.nodes, tb.dep, tb.ap, ft); err == nil {
		t.Error("trace from unknown subnet should fail")
	}
}

// rateLimiter is a custom network function used to prove the system is
// extensible beyond the paper's four built-ins: it drops every packet
// past a per-flow budget.
type rateLimiter struct {
	funcType  policy.FuncType
	budget    int
	perFlow   map[netaddr.FiveTuple]int
	processed int64
}

func (r *rateLimiter) Type() policy.FuncType { return r.funcType }
func (r *rateLimiter) Processed() int64      { return r.processed }
func (r *rateLimiter) Process(pkt *packet.Packet, _ int64) nf.Verdict {
	r.processed++
	ft := pkt.FiveTuple()
	r.perFlow[ft]++
	if r.perFlow[ft] > r.budget {
		return nf.VerdictDrop
	}
	return nf.VerdictPass
}

func TestCustomFunctionTypeEndToEnd(t *testing.T) {
	rlType := policy.RegisterFunc("RATELIMIT")

	rng := rand.New(rand.NewSource(77))
	g := topo.Campus(topo.CampusConfig{Gateways: 2, CoreRouters: 3, EdgeRouters: 2, WithProxies: true}, rng)
	dep, err := enforce.NewDeployment(g)
	if err != nil {
		t.Fatal(err)
	}
	cores := g.NodesOfKind(topo.KindCoreRouter)
	dep.AddMiddlebox(cores[0], "rl1", rlType)
	dep.AddMiddlebox(cores[1], "ids1", policy.FuncIDS)

	tbl := policy.NewTable()
	d := policy.NewDescriptor()
	d.DstPort = netaddr.SinglePort(80)
	tbl.Add(d, policy.ActionList{rlType, policy.FuncIDS})

	ap := route.NewAllPairs(g, route.RouterTransitOnly(g))
	ctl := controller.New(dep, ap, tbl, controller.Options{
		Strategy: enforce.HotPotato,
		FunctionFactory: func(ft policy.FuncType) (nf.Function, error) {
			if ft == rlType {
				return &rateLimiter{funcType: rlType, budget: 3, perFlow: map[netaddr.FiveTuple]int{}}, nil
			}
			return nf.New(ft)
		},
	})
	nodes := buildNodes(t, ctl)
	f := newFabric(t, nodes)

	proxyID, _ := dep.ProxyFor(1)
	ft := flowFromSubnet(1, 2, 80)
	for i := 0; i < 5; i++ {
		if err := nodes[proxyID].HandleOutbound(packet.New(ft, 32), int64(i), f); err != nil {
			t.Fatal(err)
		}
	}
	// Budget 3: first three delivered, the rest rate-limited.
	if len(f.delivered) != 3 {
		t.Errorf("delivered = %d, want 3", len(f.delivered))
	}
	var rlNode *enforce.Node
	for _, id := range dep.Providers(rlType) {
		rlNode = nodes[id]
	}
	if rlNode == nil || rlNode.Counters.Dropped != 2 {
		t.Errorf("rate limiter drops = %+v", rlNode.Counters)
	}
	// The custom function sits in a chain with a built-in one.
	ids := nodes[dep.Providers(policy.FuncIDS)[0]]
	if ids.Counters.Load != 3 {
		t.Errorf("IDS saw %d packets, want 3 (only those the limiter passed)", ids.Counters.Load)
	}
}

func TestLabelSwitchedDropAndServe(t *testing.T) {
	// Verdicts must terminate label-switched packets exactly like
	// tunneled ones: a firewall deny installed AFTER the chain is
	// established drops subsequent (label-switched) packets.
	tb := newTestbed(t, controller.Options{Strategy: enforce.HotPotato, LabelSwitching: true}, webPolicy)
	f := newFabric(t, tb.nodes)
	proxy := tb.proxy(t, 1)
	ft := flowFromSubnet(1, 2, 80)

	if err := proxy.HandleOutbound(packet.New(ft, 50), 0, f); err != nil {
		t.Fatal(err)
	}
	if len(f.delivered) != 1 || f.controls != 1 {
		t.Fatalf("chain not established: delivered=%d controls=%d", len(f.delivered), f.controls)
	}
	deny := policy.NewDescriptor()
	deny.Src = topo.SubnetPrefix(1)
	for _, id := range tb.dep.Providers(policy.FuncFW) {
		fw := tb.nodes[id].Funcs[policy.FuncFW].(*nf.Firewall)
		fw.AddRule(nf.FirewallRule{Desc: deny, Action: nf.Deny})
	}
	if err := proxy.HandleOutbound(packet.New(ft, 50), 1, f); err != nil {
		t.Fatal(err)
	}
	if len(f.delivered) != 1 {
		t.Error("label-switched packet survived a firewall deny")
	}
	if proxy.Counters.LabelTx != 1 {
		t.Errorf("second packet was not label-switched: %+v", proxy.Counters)
	}
	var drops int64
	for _, id := range tb.dep.Providers(policy.FuncFW) {
		drops += tb.nodes[id].Counters.Dropped
	}
	if drops != 1 {
		t.Errorf("drops = %d, want 1", drops)
	}
}

func TestNodeSweepExpiresSoftState(t *testing.T) {
	tb := newTestbed(t, controller.Options{
		Strategy: enforce.HotPotato, LabelSwitching: true,
		FlowTTL: 100, LabelTTL: 100,
	}, webPolicy)
	f := newFabric(t, tb.nodes)
	proxy := tb.proxy(t, 1)
	if err := proxy.HandleOutbound(packet.New(flowFromSubnet(1, 2, 80), 50), 0, f); err != nil {
		t.Fatal(err)
	}
	// The proxy's flow entry and the middleboxes' label entries all
	// expire by t=1000.
	total := 0
	for _, n := range tb.nodes {
		total += n.Sweep(1000)
	}
	if total == 0 {
		t.Error("Sweep evicted nothing despite expired TTLs")
	}
	if proxy.FlowTable().Len() != 0 {
		t.Errorf("proxy flow table still has %d entries", proxy.FlowTable().Len())
	}
	for _, id := range tb.dep.MBNodes {
		if lt := tb.nodes[id].LabelTable(); lt != nil && lt.Len() != 0 {
			t.Errorf("middlebox %v label table still has %d entries", id, lt.Len())
		}
	}
}

// TestReinstallKeepsLabelPaths re-installs, mid-flow, the configuration
// the middleboxes of a label-switched chain already run — what a
// reconnect catch-up or a base-mismatch full prepare does — as a decoded
// copy (new policy pointers, equal rules). Nothing changed, so nothing may
// be purged: every later packet is label-switched along the same path and
// delivered. A reinstall that wiped the label tables stranded the flow,
// because the proxy keeps label-switching it (with FlowTTL 0 it never
// re-tunnels) and every middlebox label lookup missed.
func TestReinstallKeepsLabelPaths(t *testing.T) {
	tb := newTestbed(t, controller.Options{Strategy: enforce.HotPotato, LabelSwitching: true}, webPolicy)
	f := newFabric(t, tb.nodes)
	proxy := tb.proxy(t, 1)
	ft := flowFromSubnet(1, 2, 80)
	for i := 0; i < 2; i++ { // tunneled, then label-switched
		if err := proxy.HandleOutbound(packet.New(ft, 50), int64(i), f); err != nil {
			t.Fatal(err)
		}
	}
	path := append([]topo.NodeID(nil), f.visits[flowKeyOf(packet.New(ft, 0))]...)
	if len(f.delivered) != 2 || proxy.Counters.LabelTx != 1 || len(path) != 4 {
		t.Fatalf("chain not label-switched before the reinstall: delivered %d, %+v, visits %v",
			len(f.delivered), proxy.Counters, path)
	}
	for _, id := range path[:2] {
		cfg := tb.nodes[id].Config()
		cfg.Policies = nil
		for _, p := range tb.nodes[id].Config().Policies {
			cp := *p
			cfg.Policies = append(cfg.Policies, &cp)
		}
		if err := tb.nodes[id].Install(cfg); err != nil {
			t.Fatal(err)
		}
	}

	const later = 8
	for i := 0; i < later; i++ {
		if err := proxy.HandleOutbound(packet.New(ft, 50), int64(2+i), f); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(f.delivered) - 2; got != later {
		t.Errorf("delivered %d of the %d packets after the reinstall", got, later)
	}
	for _, id := range path[:2] {
		if c := tb.nodes[id].Counters; c.LabelMiss != 0 || c.Invalidated != 0 {
			t.Errorf("middlebox %v after reinstall: LabelMiss %d, Invalidated %d", id, c.LabelMiss, c.Invalidated)
		}
	}
	if proxy.Counters.TunnelTx != 1 || proxy.Counters.LabelTx != 1+later {
		t.Errorf("proxy: TunnelTx %d LabelTx %d, want 1 and %d", proxy.Counters.TunnelTx, proxy.Counters.LabelTx, 1+later)
	}
}
