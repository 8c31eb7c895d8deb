package live_test

import (
	"bufio"
	"bytes"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/experiments"
	"sdme/internal/live"
	"sdme/internal/metrics"
	"sdme/internal/netaddr"
	"sdme/internal/packet"
	"sdme/internal/policy"
	"sdme/internal/route"
	"sdme/internal/topo"
)

// observedLiveBed is a liveBed with the observability layer attached:
// the registry and tracer are wired into every node BEFORE AddDevice
// hands the node to its device goroutine.
type observedLiveBed struct {
	*liveBed
	reg    *metrics.Registry
	tracer *enforce.RuntimeTracer
	nodes  map[topo.NodeID]*enforce.Node
	dep    *enforce.Deployment
	ap     *route.AllPairs
}

func newObservedLiveBed(t *testing.T, strategy enforce.Strategy) *observedLiveBed {
	t.Helper()
	rng := rand.New(rand.NewSource(2))
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
	ctl := controller.New(dep, ap, tbl, controller.Options{
		Strategy: strategy,
		K:        map[policy.FuncType]int{policy.FuncFW: 2, policy.FuncIDS: 1},
		HashSeed: 2,
	})
	// The plan is compiled over the flows the test will send (under LB the
	// weights are solved for them) and the nodes built from it before the
	// devices start, so the static plan and the runtime selection share
	// one configuration.
	demands := make([]enforce.FlowDemand, 0, 50)
	for i := 0; i < 50; i++ {
		demands = append(demands, enforce.FlowDemand{Tuple: observedLiveFlow(i), Packets: 1})
	}
	upd, err := ctl.NewPipeline(controller.PipelineOptions{}).Recompute(controller.MeasurementsFromFlows(dep, tbl, demands))
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := ctl.BuildNodesFromPlan(upd.Plan)
	if err != nil {
		t.Fatal(err)
	}

	rt := live.NewRuntime()
	t.Cleanup(rt.Close)
	reg := rt.NewRegistry()
	rt.AttachMetrics(reg)
	tracer := enforce.NewRuntimeTracer(4096, 1, 2)

	devices := make(map[topo.NodeID]*live.Device)
	for id, n := range nodes {
		n.SetMetrics(reg)
		n.SetTracer(tracer)
		dev, err := rt.AddDevice(n)
		if err != nil {
			t.Fatal(err)
		}
		devices[id] = dev
	}
	addrs := make([]netaddr.Addr, 0, 8)
	for h := 1; h <= 8; h++ {
		addrs = append(addrs, topo.HostAddr(2, h))
	}
	sink, err := rt.AddSink(addrs...)
	if err != nil {
		t.Fatal(err)
	}
	return &observedLiveBed{
		liveBed: &liveBed{rt: rt, dep: dep, devices: devices, sink: sink, tbl: tbl},
		reg:     reg, tracer: tracer, nodes: nodes, dep: dep, ap: ap,
	}
}

func observedLiveFlow(i int) netaddr.FiveTuple {
	return netaddr.FiveTuple{
		Src: topo.HostAddr(1, 1+i%8), Dst: topo.HostAddr(2, 1+(i/8)%8),
		SrcPort: uint16(31000 + i), DstPort: 80, Proto: netaddr.ProtoTCP,
	}
}

// TestLiveDifferentialConformance is the live half of the differential
// suite: the same plan-vs-runtime check as the sim tests, but with the
// packets crossing real UDP sockets. Both selectors must reproduce the
// static plan on every sampled flow.
func TestLiveDifferentialConformance(t *testing.T) {
	for _, strategy := range []enforce.Strategy{enforce.HotPotato, enforce.LoadBalanced} {
		t.Run(strategy.String(), func(t *testing.T) {
			b := newObservedLiveBed(t, strategy)
			proxyID, _ := b.dep.ProxyFor(1)
			proxyAddr := b.dep.AddrOf(proxyID)

			const n = 50
			flows := make([]netaddr.FiveTuple, n)
			planned := make([]*enforce.Trace, n)
			for i := range flows {
				flows[i] = observedLiveFlow(i)
				tr, err := enforce.TraceFlow(b.nodes, b.dep, b.ap, flows[i])
				if err != nil {
					t.Fatalf("plan trace %v: %v", flows[i], err)
				}
				planned[i] = tr
			}
			for _, ft := range flows {
				if err := b.rt.Inject(proxyAddr, packet.New(ft, 64)); err != nil {
					t.Fatal(err)
				}
			}
			if !live.WaitUntil(5*time.Second, func() bool { return b.sink.Received() >= n }) {
				t.Fatalf("sink received %d of %d", b.sink.Received(), n)
			}

			mismatches := 0
			for i, ft := range flows {
				rt := b.tracer.RuntimeTrace(ft)
				if !planned[i].SamePath(rt) {
					mismatches++
					t.Errorf("flow %v: planned %v, runtime %v", ft, planned[i].Hops, rt.Hops)
				}
			}
			if mismatches == 0 {
				t.Logf("%v: %d live runtime traces match static plans (%d hop records)",
					strategy, n, b.tracer.Total())
			}
		})
	}
}

// TestLiveSimMetricNameParity asserts the acceptance criterion that the
// sim and live substrates emit the same dataplane metric family names:
// the families shared by construction (sdme_node_*, sdme_func_*) must
// be exactly equal across a sim run and a live run.
func TestLiveSimMetricNameParity(t *testing.T) {
	shared := func(text []byte) map[string]bool {
		out := make(map[string]bool)
		sc := bufio.NewScanner(bytes.NewReader(text))
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "# TYPE ") {
				continue
			}
			name := strings.Fields(line)[2]
			if strings.HasPrefix(name, "sdme_node_") || strings.HasPrefix(name, "sdme_func_") {
				out[name] = true
			}
		}
		return out
	}

	bed, err := experiments.NewBed(experiments.Config{Topology: "campus", Seed: 3, PoliciesPerClass: 2})
	if err != nil {
		t.Fatal(err)
	}
	simRun, err := bed.RunObserved(experiments.ObserveConfig{Strategy: enforce.HotPotato, Flows: 10})
	if err != nil {
		t.Fatal(err)
	}
	simFams := shared(simRun.Registry.Snapshot().Text)

	b := newObservedLiveBed(t, enforce.HotPotato)
	proxyID, _ := b.dep.ProxyFor(1)
	proxyAddr := b.dep.AddrOf(proxyID)
	if err := b.rt.Inject(proxyAddr, packet.New(observedLiveFlow(0), 64)); err != nil {
		t.Fatal(err)
	}
	if !live.WaitUntil(3*time.Second, func() bool { return b.sink.Received() >= 1 }) {
		t.Fatal("packet never delivered")
	}
	liveFams := shared(b.reg.Snapshot().Text)

	if len(simFams) == 0 {
		t.Fatal("sim exposition has no shared dataplane families")
	}
	for name := range simFams {
		if !liveFams[name] {
			t.Errorf("family %s present in sim, missing in live", name)
		}
	}
	for name := range liveFams {
		if !simFams[name] {
			t.Errorf("family %s present in live, missing in sim", name)
		}
	}
}

// TestLiveFlowTableEvents reads §III-D's classifications per flow off a
// live device's registry: 20 flows of 3 packets each enter at a proxy,
// so its flow table classifies each flow once (a miss and an insert)
// and looks the other two packets up (hits). The device loop publishes
// the table's counters with the shard gauges whenever it is woken.
func TestLiveFlowTableEvents(t *testing.T) {
	b := newObservedLiveBed(t, enforce.HotPotato)
	proxyID, _ := b.dep.ProxyFor(1)
	proxyAddr := b.dep.AddrOf(proxyID)
	const flows, perFlow = 20, 3
	for p := 0; p < perFlow; p++ {
		for i := 0; i < flows; i++ {
			if err := b.rt.Inject(proxyAddr, packet.New(observedLiveFlow(i), 64)); err != nil {
				t.Fatal(err)
			}
		}
		// Each round lands before the next: its packets hit what the
		// previous round inserted.
		if !live.WaitUntil(3*time.Second, func() bool { return b.sink.Received() >= (p+1)*flows }) {
			t.Fatalf("sink received %d of %d", b.sink.Received(), (p+1)*flows)
		}
	}
	node := strconv.Itoa(int(proxyID))
	event := func(name string) float64 {
		return b.reg.Gauge(enforce.MetricFlowTableEvents, "node", node, "event", name).Value()
	}
	dev := b.devices[proxyID]
	if !live.WaitUntil(3*time.Second, func() bool {
		dev.Counters() // wakes the loop, which refreshes the sampled gauges
		return event("hit") == flows*(perFlow-1)
	}) {
		t.Fatalf("hit = %v, want %d", event("hit"), flows*(perFlow-1))
	}
	if event("miss") != flows || event("inserted") != flows || event("null_hit") != 0 || event("expired") != 0 {
		t.Fatalf("miss/inserted/null_hit/expired = %v/%v/%v/%v, want %d/%d/0/0",
			event("miss"), event("inserted"), event("null_hit"), event("expired"), flows, flows)
	}
	if got := event("miss") / event("inserted"); got != 1 {
		t.Fatalf("classifications per flow = %v, want 1", got)
	}
}

// TestLiveTxGauges reads §III-E's transmissions off a live device's
// registry: after a flow's first packet is tunneled and the rest ride
// labels, the proxy's sdme_node_tx gauges equal its counters, mode by
// mode.
func TestLiveTxGauges(t *testing.T) {
	b := newLiveBed(t, controller.Options{Strategy: enforce.HotPotato, LabelSwitching: true})
	reg := b.rt.NewRegistry()
	b.rt.AttachMetrics(reg)
	proxyID, _ := b.dep.ProxyFor(1)
	proxyAddr := b.dep.AddrOf(proxyID)
	dev := b.devices[proxyID]
	dev.Do(func(n *enforce.Node) { n.SetMetrics(reg) })

	ft := liveFlow(3)
	if err := b.rt.Inject(proxyAddr, packet.New(ft, 16)); err != nil {
		t.Fatal(err)
	}
	if !live.WaitUntil(3*time.Second, func() bool { return dev.Counters().ControlRx >= 1 }) {
		t.Fatalf("control message never arrived: %+v", dev.Counters())
	}
	const more = 6
	for i := 0; i < more; i++ {
		if err := b.rt.Inject(proxyAddr, packet.New(ft, 16)); err != nil {
			t.Fatal(err)
		}
	}
	if !live.WaitUntil(3*time.Second, func() bool { return b.sink.Received() >= 1+more }) {
		t.Fatalf("sink received %d of %d", b.sink.Received(), 1+more)
	}
	c := dev.Counters()
	if c.TunnelTx != 1 || c.LabelTx != more {
		t.Fatalf("proxy counters: tunnel=%d label=%d, want 1/%d", c.TunnelTx, c.LabelTx, more)
	}
	node := strconv.Itoa(int(proxyID))
	tx := func(mode string) float64 { return reg.Gauge(enforce.MetricTx, "node", node, "mode", mode).Value() }
	if !live.WaitUntil(3*time.Second, func() bool {
		dev.Counters() // wakes the loop, which refreshes the sampled gauges
		return tx("label") == float64(c.LabelTx)
	}) {
		t.Fatalf("label gauge %v, LabelTx %d", tx("label"), c.LabelTx)
	}
	if tx("tunnel") != float64(c.TunnelTx) || tx("plain") != float64(c.PlainTx) || tx("control") != float64(c.ControlTx) {
		t.Fatalf("tunnel/plain/control gauges %v/%v/%v, counters %d/%d/%d",
			tx("tunnel"), tx("plain"), tx("control"), c.TunnelTx, c.PlainTx, c.ControlTx)
	}
}
