package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"time"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/live"
	"sdme/internal/metrics"
	"sdme/internal/netaddr"
	"sdme/internal/packet"
	"sdme/internal/policy"
	"sdme/internal/route"
	"sdme/internal/topo"
)

const (
	// liveFlows is the flow population of live_loopback.
	liveFlows = 256
	// liveWindow bounds the packets in flight. UDP has no flow control:
	// 64 keeps the sink's default 208 KiB socket buffer from overflowing,
	// so the closed loop measures enforcement and not loss.
	liveWindow = 64
	// liveDstHosts is how many destination addresses the sink serves.
	liveDstHosts = 16
	// liveStall is how long the closed loop waits without progress before
	// it counts the packets in flight as lost.
	liveStall = 2 * time.Second
	// liveWindows is how many slices the measured time splits into, and
	// livePingShare the part of each slice spent on serial one-packet
	// pings, which give the latency metrics.
	liveWindows   = 12
	livePingShare = 0.2
)

// liveBed is the sdme-live demo deployment on the loopback fabric: a small
// campus, fw1/fw2/ids1, one FW,IDS policy, LB, label switching, one sink.
type liveBed struct {
	rt      *live.Runtime
	devices []*live.Device
	sink    *live.Sink
	proxy   netaddr.Addr
	flows   []netaddr.FiveTuple
	// planned holds enforce.TraceFlow's plan for a sample of the flows,
	// computed before the device goroutines take the nodes over.
	planned map[netaddr.FiveTuple]*enforce.Trace
}

func setupLive(seed int64, tr *tracer) (*liveBed, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	rng := rand.New(rand.NewSource(bedSeed))
	g := topo.Campus(topo.CampusConfig{Gateways: 2, CoreRouters: 4, EdgeRouters: 2, WithProxies: true}, rng)
	dep, err := enforce.NewDeployment(g)
	if err != nil {
		return nil, st, err
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
	opts := controller.Options{
		Strategy:       enforce.LoadBalanced,
		K:              map[policy.FuncType]int{policy.FuncFW: 2, policy.FuncIDS: 1},
		LabelSwitching: true,
	}
	if tr != nil {
		opts.FunctionFactory = tr.factory
	}
	ctl := controller.New(dep, ap, tbl, opts)
	b := &liveBed{planned: make(map[netaddr.FiveTuple]*enforce.Trace)}
	rng = rand.New(rand.NewSource(seed)) // from here on: traffic
	demands := make([]enforce.FlowDemand, liveFlows)
	for i := range demands {
		ft := netaddr.FiveTuple{
			Src: topo.HostAddr(1, 1+rng.Intn(200)), Dst: topo.HostAddr(2, 1+i%liveDstHosts),
			SrcPort: uint16(20000 + i), DstPort: 80, Proto: netaddr.ProtoTCP,
		}
		b.flows = append(b.flows, ft)
		demands[i] = enforce.FlowDemand{Tuple: ft, Packets: int64(1 + rng.Intn(100))}
	}
	st.bed = time.Since(t0)

	t0 = time.Now()
	upd, err := ctl.NewPipeline(controller.PipelineOptions{}).Recompute(controller.MeasurementsFromFlows(dep, tbl, demands))
	if err != nil {
		return nil, st, fmt.Errorf("initial solve: %w", err)
	}
	st.solve = time.Since(t0)

	t0 = time.Now()
	nodes, err := buildShardedNodes(ctl, upd.Plan)
	if err != nil {
		return nil, st, err
	}
	for i := 0; i < liveFlows; i += liveFlows / 16 {
		plan, err := enforce.TraceFlow(nodes, dep, ap, b.flows[i])
		if err != nil {
			return nil, st, err
		}
		b.planned[b.flows[i]] = plan
	}
	b.rt = live.NewRuntime()
	ids := make([]topo.NodeID, 0, len(nodes))
	for id := range nodes {
		ids = append(ids, id)
	}
	for _, id := range topo.SortedIDs(ids) {
		dev, err := b.rt.AddDevice(nodes[id])
		if err != nil {
			b.rt.Close()
			return nil, st, err
		}
		b.devices = append(b.devices, dev)
	}
	dsts := make([]netaddr.Addr, liveDstHosts)
	for i := range dsts {
		dsts[i] = topo.HostAddr(2, 1+i)
	}
	if b.sink, err = b.rt.AddSink(dsts...); err != nil {
		b.rt.Close()
		return nil, st, err
	}
	proxyID, _ := dep.ProxyFor(1)
	b.proxy = dep.AddrOf(proxyID)
	st.rollout = time.Since(t0)
	return b, st, nil
}

// injector is the single closed-loop load goroutine of live_loopback.
type injector struct {
	b       *liveBed
	pkt     *packet.Packet
	sent    int
	lost    int       // packets written off after a stall
	rec     *recorder // nil unless traced
	stalled bool
}

func newLivePkt() *packet.Packet {
	p := packet.New(netaddr.FiveTuple{}, payloadBytes)
	p.Payload = make([]byte, payloadBytes)
	return p
}

// inject sends the next packet of the round-robin flow sequence.
func (in *injector) inject() error { return in.injectFlow(in.b.flows[in.sent%liveFlows]) }

func (in *injector) injectFlow(ft netaddr.FiveTuple) error {
	p := in.pkt
	p.Inner = packet.Header{
		Src: ft.Src, Dst: ft.Dst, SrcPort: ft.SrcPort, DstPort: ft.DstPort,
		Proto: ft.Proto, TTL: packet.DefaultTTL,
	}
	binary.LittleEndian.PutUint64(p.Payload, uint64(in.sent))
	if in.rec != nil {
		in.rec.root(spanInject, int64(in.sent), 64)
	}
	err := in.b.rt.Inject(in.b.proxy, p)
	if in.rec != nil {
		in.rec.end()
	}
	in.sent++
	return err
}

// awaitInFlight waits until at most limit packets are in flight. The
// count comes from Sink.Received, never from the quiescing Device.Counters.
// How it waits between polls matters on a 2-core host:
//   - the throughput phase sleeps, so that a full window hands the
//     injector's CPU to the devices;
//   - the ping phase polls without yielding (busy): a timer sleep is coarser
//     than the latency it measures, and a Gosched between polls lets the
//     injector's P pick up device goroutines now and then, which moved the
//     median ping by 10 % from one second to the next. With one P the
//     devices need the yield.
func (in *injector) awaitInFlight(limit int, busy bool) {
	busy = busy && runtime.GOMAXPROCS(0) > 1
	last, lastAt := -1, time.Now()
	for polls := 0; ; polls++ {
		got := in.b.sink.Received() + in.lost
		if in.sent-got <= limit {
			return
		}
		if busy && polls%1024 != 0 {
			continue
		}
		if got != last {
			last, lastAt = got, time.Now()
		} else if time.Since(lastAt) > liveStall {
			in.lost += in.sent - got
			in.stalled = true
			return
		}
		if !busy {
			time.Sleep(20 * time.Microsecond)
		}
	}
}

// window keeps liveWindow packets in flight until d has passed, drains,
// and returns the packets delivered and the time from first send to the
// last delivery.
func (in *injector) window(d time.Duration) (phaseStats, error) {
	start := time.Now()
	first := in.b.sink.Received()
	for time.Since(start) < d && !in.stalled {
		for k := 0; k < 16; k++ {
			in.awaitInFlight(liveWindow-1, false)
			if err := in.inject(); err != nil {
				return phaseStats{}, err
			}
		}
	}
	in.awaitInFlight(0, false)
	return phaseStats{packets: int64(in.b.sink.Received() - first), elapsed: time.Since(start)}, nil
}

// pings sends serial one-packet pings for d over established,
// label-switched flows — inject, then spin until the sink has the packet —
// and returns their latencies in ns.
func (in *injector) pings(d time.Duration) ([]float64, error) {
	var lat []float64
	for end := time.Now().Add(d); time.Now().Before(end) && !in.stalled; {
		t0 := nanos()
		if err := in.inject(); err != nil {
			return nil, err
		}
		in.awaitInFlight(0, true)
		lat = append(lat, float64(nanos()-t0))
	}
	return lat, nil
}

// liveSlices is the measured part of a live run: n slices, each a
// throughput window followed by a ping phase. The host drifts between
// faster and slower states about once a second (which threads share a
// core), so the run reports the median window rate and the median of the
// slices' median latencies, not the mean over one long phase of each.
type liveSlices struct {
	sum        phaseStats // all throughput windows
	rates      []float64  // per window, packets/s
	pingMedian []float64  // per slice, ns
	lat        latencies  // every ping, ns
}

func (in *injector) slices(d time.Duration, n int) (*liveSlices, error) {
	ls := &liveSlices{}
	var all []float64
	each := d / time.Duration(n)
	ping := time.Duration(float64(each) * livePingShare)
	for i := 0; i < n; i++ {
		st, err := in.window(each - ping)
		if err != nil {
			return nil, err
		}
		ls.sum.packets += st.packets
		ls.sum.elapsed += st.elapsed
		ls.rates = append(ls.rates, st.perSecond())
		lat, err := in.pings(ping)
		if err != nil {
			return nil, err
		}
		sort.Float64s(lat)
		ls.pingMedian = append(ls.pingMedian, quantile(lat, 0.50))
		all = append(all, lat...)
	}
	ls.lat = summarize(all)
	return ls, nil
}

func runLive(cfg runConfig) (*result, error) {
	res := newResult("live_loopback", cfg)
	var tr *tracer
	if cfg.trace {
		tr = newTracer(1)
	}
	var b *liveBed
	setups, err := cfg.repeatSetup(func() (st setupTimes, err error) {
		if b != nil {
			b.rt.Close()
		}
		b, st, err = setupLive(cfg.seed, tr)
		return st, err
	})
	if err != nil {
		return nil, err
	}
	defer b.rt.Close()
	res.setup(setups)

	in := &injector{b: b, pkt: newLivePkt()}
	if _, err := in.window(cfg.warmup()); err != nil {
		return nil, err
	}

	measure, slices := cfg.measure(), liveWindows
	if cfg.trace {
		measure, slices = measure/2, slices/2
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	plain, err := in.slices(measure, slices)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)

	var traced *liveSlices
	var reg *metrics.Registry
	if cfg.trace {
		reg = b.rt.NewRegistry()
		b.rt.AttachMetrics(reg)
		in.rec = tr.slots[0].rec
		tr.active.Store(true)
		traced, err = in.slices(measure, slices)
		tr.active.Store(false)
		in.rec = nil
		b.rt.AttachMetrics(nil)
		if err != nil {
			return nil, err
		}
	}
	res.E2E["enforced_per_s"] = median(plain.rates)
	res.E2E["op_latency_p50_us"] = median(plain.pingMedian) / 1e3
	res.E2E["live_heap_mb"] = heldHeapMB()
	res.samples("op_latency", plain.lat.n)
	res.notef("%d packets in %.2fs (%d windows, each followed by pings), one injector, window %d, %d flows; traffic crossed the host's loopback interface, not a link",
		plain.sum.packets, plain.sum.elapsed.Seconds(), slices, liveWindow, liveFlows)

	dc := b.verify(res, in)
	if !cfg.trace {
		return res, nil
	}

	L := res.Layer
	L["bench.failed_share"] = float64(res.Failed) / float64(in.sent)
	L["bench.allocs_per_pkt"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(plain.sum.packets)
	L["bench.op_latency_p95_us"] = plain.lat.p95 / 1e3
	L["bench.op_latency_p99_us"] = plain.lat.p99 / 1e3
	L["bench.trace_overhead_share"] = median(plain.rates)/median(traced.rates) - 1
	L["enforce.hops_per_pkt"] = float64(dc.Load) / float64(in.sent)
	L["enforce.classified_per_pkt"] = float64(dc.Classified) / float64(in.sent)
	if tx := dc.TunnelTx + dc.LabelTx; tx > 0 {
		L["enforce.tunnel_tx_share"] = float64(dc.TunnelTx) / float64(tx)
		L["enforce.label_tx_share"] = float64(dc.LabelTx) / float64(tx)
	}
	L["enforce.errors"] = float64(dc.Misdirected + dc.NoProvider + dc.LabelMiss)
	// The registry and the spans saw the traced half's pings as well.
	tracedPackets := float64(traced.sum.packets + int64(traced.lat.n))
	agg := tr.merged()
	L["live.inject_ns"] = agg[spanInject].meanNS()
	var nfTotal int64
	for n := spanNFBase; n < numSpans; n++ {
		nfTotal += agg[n].TotalNS
	}
	L["nf.span_ns_per_pkt"] = float64(nfTotal) / tracedPackets
	L["live.datagrams_per_pkt"] = float64(reg.Counter(live.MetricSent).Value()) / tracedPackets
	for _, dev := range b.devices {
		h := reg.Histogram(live.MetricWorkerQueueDepth, live.QueueDepthBuckets, "node", strconv.Itoa(int(dev.Node.ID)))
		L["live.queue_depth_p99"] = max(L["live.queue_depth_p99"], float64(h.Quantile(0.99)))
	}
	L["live.control_frames"] = float64(dc.ControlTx)
	L["live.counters_call_us"] = dc.callUS
	L["live.dev_errors"] = float64(dc.devErrs)
	L["live.blackholed"] = float64(b.rt.Blackholed.Load())
	t0 := time.Now()
	for _, dev := range b.devices {
		dev.Do(func(*enforce.Node) {})
	}
	L["live.do_call_us"] = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(len(b.devices))

	cfg.rungs().dataplane(L, b.flows, b.devices[0].Node.Config().Policies, nil)
	path, err := tr.write(cfg.resultsDir, res.Workload, res.Fingerprint)
	if err != nil {
		return nil, err
	}
	res.notef("spans written to %s", path)
	return res, nil
}

// deviceCounters sums the devices' node counters, read through the
// quiescing Device.Counters once the traffic has stopped.
type deviceCounters struct {
	enforce.Counters
	devErrs int64
	callUS  float64 // mean Device.Counters call
}

// verify runs the correctness checks of a live run.
func (b *liveBed) verify(res *result, in *injector) deviceCounters {
	res.check("hop-sequence", b.checkHops(in))
	received := b.sink.Received()
	res.Attempted, res.Failed = int64(in.sent), int64(in.sent-received)
	if in.stalled {
		res.check("closed-loop-stall", fmt.Errorf("no delivery for %v with packets in flight", liveStall))
	}
	if res.Failed != 0 {
		res.check("packet-conservation", fmt.Errorf("sent %d, sink received %d", in.sent, received))
	}
	if enc, lab := b.sink.Anomalies(); enc != 0 || lab != 0 {
		res.check("delivered-clean", fmt.Errorf("sink saw %d encapsulated and %d labelled packets", enc, lab))
	}
	var dc deviceCounters
	t0 := time.Now()
	for _, dev := range b.devices {
		c := dev.Counters()
		dc.devErrs += dev.Errors.Load()
		dc.Misdirected += c.Misdirected
		dc.NoProvider += c.NoProvider
		dc.LabelMiss += c.LabelMiss
		dc.ControlTx += c.ControlTx
		dc.TunnelTx += c.TunnelTx
		dc.LabelTx += c.LabelTx
		dc.Load += c.Load
		dc.Classified += c.Classified
	}
	dc.callUS = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(len(b.devices))
	if bad := dc.devErrs + dc.Misdirected + dc.NoProvider + dc.LabelMiss + b.rt.Blackholed.Load(); bad != 0 {
		res.check("enforce-errors", fmt.Errorf("%d device errors, %d misdirected, %d no-provider, %d label-miss, %d blackholed",
			dc.devErrs, dc.Misdirected, dc.NoProvider, dc.LabelMiss, b.rt.Blackholed.Load()))
		res.Failed = max(res.Failed, bad)
	}
	return dc
}

// checkHops attaches a runtime tracer to every device, sends one more
// packet on each planned flow, and compares the middleboxes the tracer
// saw with enforce.TraceFlow's plan.
func (b *liveBed) checkHops(in *injector) error {
	rt := enforce.NewRuntimeTracer(0, 1, 0)
	for _, dev := range b.devices {
		if !dev.Do(func(n *enforce.Node) { n.SetTracer(rt) }) {
			return fmt.Errorf("device %v stopped", dev.Node.ID)
		}
	}
	for ft := range b.planned {
		if err := in.injectFlow(ft); err != nil {
			return err
		}
		in.awaitInFlight(0, false)
	}
	for ft, plan := range b.planned {
		if got := rt.RuntimeTrace(ft); !got.SamePath(plan) {
			return fmt.Errorf("flow %v traversed %v, plan %v", ft, got, plan)
		}
	}
	return nil
}
