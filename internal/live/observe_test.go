package live_test

import (
	"bufio"
	"bytes"
	"math/rand"
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
