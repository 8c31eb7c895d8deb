package live_test

import (
	"bufio"
	"bytes"
	"fmt"
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
// the families shared by construction (sdme_node_*, sdme_func_*,
// sdme_flowtable_*, sdme_labeltable_*) must be exactly equal across a sim
// run and a live run. The table families are read at exposition, so both
// scrapes must carry their series with nothing synced or woken first.
func TestLiveSimMetricNameParity(t *testing.T) {
	// shared maps each shared family in an exposition to its series count.
	shared := func(text []byte) map[string]int {
		out := make(map[string]int)
		sc := bufio.NewScanner(bytes.NewReader(text))
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "# TYPE ") {
				name := strings.Fields(line)[2]
				for _, prefix := range []string{"sdme_node_", "sdme_func_", "sdme_flowtable_", "sdme_labeltable_"} {
					if strings.HasPrefix(name, prefix) {
						out[name] = 0
					}
				}
				continue
			}
			if name, _, ok := strings.Cut(line, "{"); ok {
				if _, in := out[name]; in {
					out[name]++
				}
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
		if _, ok := liveFams[name]; !ok {
			t.Errorf("family %s present in sim, missing in live", name)
		}
	}
	for name := range liveFams {
		if _, ok := simFams[name]; !ok {
			t.Errorf("family %s present in live, missing in sim", name)
		}
	}
	for _, name := range []string{enforce.MetricFlowTableEvents, enforce.MetricFlowShardEntries, enforce.MetricLabelShardEntries} {
		if simFams[name] == 0 || liveFams[name] == 0 {
			t.Errorf("family %s: %d sim series, %d live series; want both non-empty", name, simFams[name], liveFams[name])
		}
	}
}

// scraped returns one series' value from a scrape of reg — the text
// /metrics serves — and whether the scrape had the series. series is the
// family name with its labels as the exposition renders them, sorted by
// key.
func scraped(reg *metrics.Registry, series string) (float64, bool) {
	sc := bufio.NewScanner(bytes.NewReader(reg.Snapshot().Text))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			return f, err == nil
		}
	}
	return 0, false
}

// TestLiveFlowTableEvents reads §III-D's classifications per flow off a
// live device's registry: 20 flows of 3 packets each enter at a proxy,
// so its flow table classifies each flow once (a miss and an insert)
// and looks the other two packets up (hits). The registry reads the
// table's counters when it is scraped; nothing wakes the device first.
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
	event := func(name string) float64 {
		v, _ := scraped(b.reg, fmt.Sprintf(`%s{event=%q,node="%d"}`, enforce.MetricFlowTableEvents, name, proxyID))
		return v
	}
	if event("hit") != flows*(perFlow-1) {
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
	tx := func(mode string) float64 {
		v, _ := scraped(reg, fmt.Sprintf(`%s{mode=%q,node="%d"}`, enforce.MetricTx, mode, proxyID))
		return v
	}
	if tx("label") != float64(c.LabelTx) || tx("tunnel") != float64(c.TunnelTx) ||
		tx("plain") != float64(c.PlainTx) || tx("control") != float64(c.ControlTx) {
		t.Fatalf("label/tunnel/plain/control gauges %v/%v/%v/%v, counters %d/%d/%d/%d",
			tx("label"), tx("tunnel"), tx("plain"), tx("control"), c.LabelTx, c.TunnelTx, c.PlainTx, c.ControlTx)
	}
}

// TestLiveScrapeNotStale sends N flows through a proxy and then scrapes
// once, with no Do or Counters call, no health probe and no sweep (the
// configuration has no TTL) in between: the scrape must already show the
// proxy's N tunnelled packets and N classifications. A registry that
// holds copies refreshed when the device is woken would read 0 here.
func TestLiveScrapeNotStale(t *testing.T) {
	b := newObservedLiveBed(t, enforce.HotPotato)
	proxyID, _ := b.dep.ProxyFor(1)
	proxyAddr := b.dep.AddrOf(proxyID)
	const n = 20
	for i := 0; i < n; i++ {
		if err := b.rt.Inject(proxyAddr, packet.New(observedLiveFlow(i), 64)); err != nil {
			t.Fatal(err)
		}
	}
	// The proxy classifies and tunnels a packet before the sink can
	// receive it, so its counts are final once the sink has all n.
	if !live.WaitUntil(3*time.Second, func() bool { return b.sink.Received() >= n }) {
		t.Fatalf("sink received %d of %d", b.sink.Received(), n)
	}
	text := string(b.reg.Snapshot().Text)
	for _, series := range []string{
		fmt.Sprintf(`%s{mode="tunnel",node="%d"} %d`, enforce.MetricTx, proxyID, n),
		fmt.Sprintf(`%s{event="miss",node="%d"} %d`, enforce.MetricFlowTableEvents, proxyID, n),
	} {
		if !strings.Contains(text, series+"\n") {
			t.Errorf("scrape lacks %q:\n%s", series, text)
		}
	}
}

// TestLiveScrapeDuringInstall scrapes in a loop while a middlebox is
// re-installed with new shard tuning, which gives it fresh flow and label
// tables each time; under -race this checks that a read of the tables is
// ordered with Install's replacement of them. The last scrape shows the
// last tuning's shard count.
func TestLiveScrapeDuringInstall(t *testing.T) {
	b := newObservedLiveBed(t, enforce.HotPotato)
	var mbID topo.NodeID
	for id, n := range b.nodes {
		if !n.IsProxy {
			mbID = id
			break
		}
	}
	dev := b.devices[mbID]
	stop := make(chan struct{})
	scrapes := make(chan int)
	go func() {
		count := 0
		for {
			select {
			case <-stop:
				scrapes <- count
				return
			default:
				b.reg.Snapshot()
				count++
			}
		}
	}()
	shards := 0
	for i := 0; i < 40; i++ {
		shards = 1 << (i % 4)
		dev.Do(func(n *enforce.Node) {
			n.SetShardTuning(shards, shards)
			if err := n.Install(n.Config()); err != nil {
				t.Error(err)
			}
		})
	}
	close(stop)
	if got := <-scrapes; got == 0 {
		t.Fatal("no scrape ran beside the installs")
	}
	text := string(b.reg.Snapshot().Text)
	for _, fam := range []string{enforce.MetricFlowShardEntries, enforce.MetricLabelShardEntries} {
		if got := strings.Count(text, fmt.Sprintf(`%s{node="%d",`, fam, mbID)); got != shards {
			t.Errorf("%s: %d series for node %d, want %d", fam, got, mbID, shards)
		}
	}
}

// TestLiveScrapeWhileWedged scrapes a registry whose device is wedged: a
// read never waits on a device, so the scrape returns.
func TestLiveScrapeWhileWedged(t *testing.T) {
	b := newObservedLiveBed(t, enforce.HotPotato)
	proxyID, _ := b.dep.ProxyFor(1)
	release := b.devices[proxyID].Wedge()
	defer release()
	done := make(chan struct{})
	go func() {
		b.reg.Snapshot()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("scrape stalled on a wedged device")
	}
}
