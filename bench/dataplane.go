package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/netaddr"
	"sdme/internal/packet"
	"sdme/internal/policy"
	"sdme/internal/topo"
)

const (
	// generators is the number of closed-loop generator goroutines; each
	// owns a disjoint flow set and sends its next packet only when the
	// previous one has left its chain.
	generators = 2
	// steadyFlows is the long-lived flow population of the chain workloads.
	steadyFlows = 6000
	// payloadBytes is the L4 payload of every generated packet.
	payloadBytes = 64
	// latencyEvery samples one HandleOutbound wall time in this many packets.
	latencyEvery = 64
	// deadlineEvery is how many packets a generator sends between clock reads.
	deadlineEvery = 256

	// flow_churn: packets per flow, the share of flows matching no policy,
	// soft-state lifetime and sweep period in virtual microseconds (the
	// clock advances 1 us per packet), and how many flows interleave.
	churnPacketsPerFlow = 2
	churnNullEvery      = 5
	churnTTL            = 500000
	churnSweepEvery     = 100000
	churnBlock          = 64
	churnSolvedPolicies = 30
	// churnVariantPorts spreads a template's variants over source ports
	// 1024..61023 before moving to the next source host.
	churnVariantPorts = 60000
	// hopCheckFlows is how many flows have their observed hop sequence
	// compared with enforce.TraceFlow's plan.
	hopCheckFlows = 64
	// genBudgetShare is the harness self-check: the generator alone may
	// cost at most this share of the workload's per-packet time.
	genBudgetShare = 0.15
)

// chainSpec selects one of the three in-process dataplane workloads.
type chainSpec struct {
	name   string
	labels bool
	churn  bool
}

// chainBed is one in-process dataplane under test: the real nodes of a
// solved campus plan, joined by the benchmark's synchronous forwarder.
type chainBed struct {
	spec     chainSpec
	bed      *bed
	nodes    map[topo.NodeID]*enforce.Node
	nodeList []*enforce.Node
	mbByAddr map[netaddr.Addr]*enforce.Node
	pxByAddr map[netaddr.Addr]*enforce.Node
	// templates are policy-matching five-tuples; nullTemplates match no
	// policy (flow_churn only). proxyOf maps a source subnet to its proxy.
	templates     []netaddr.FiveTuple
	nullTemplates []netaddr.FiveTuple
	proxyOf       []*enforce.Node
	tr            *tracer

	clock       atomic.Int64 // flow_churn virtual time, microseconds
	entriesPeak atomic.Int64
}

// setupChain builds the bed, solves the initial plan and materializes the
// nodes: the three stages of setup_s.
func setupChain(spec chainSpec, cfg runConfig, tr *tracer) (*chainBed, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	opts := controller.Options{LabelSwitching: spec.labels}
	ppc := cfg.policiesPerClass()
	if spec.churn {
		ppc *= 10
		opts.FlowTTL, opts.LabelTTL = churnTTL, churnTTL
	}
	if tr != nil {
		opts.FunctionFactory = tr.factory
	}
	b, err := newCampusBed(cfg.seed, ppc, opts)
	if err != nil {
		return nil, st, err
	}
	st.bed = time.Since(t0)

	// The LP sees measured demand on the first churnSolvedPolicies
	// policies only (the classes interleave, so all three are there): a
	// 300-instance program takes 5 s to solve and this workload is not
	// about the LP. Traffic under the other policies has no weights and
	// is split uniformly, the nodes' own fallback.
	t0 = time.Now()
	solved := b.classed
	if spec.churn {
		solved = b.classed[:min(churnSolvedPolicies, len(b.classed))]
	}
	upd, err := b.pipe.Recompute(b.measurements(b.initialDemands(solved)))
	if err != nil {
		return nil, st, fmt.Errorf("initial solve: %w", err)
	}
	st.solve = time.Since(t0)

	t0 = time.Now()
	nodes, err := buildShardedNodes(b.ctl, upd.Plan)
	if err != nil {
		return nil, st, err
	}
	c := &chainBed{
		spec: spec, bed: b, nodes: nodes, tr: tr,
		mbByAddr: make(map[netaddr.Addr]*enforce.Node),
		pxByAddr: make(map[netaddr.Addr]*enforce.Node),
		proxyOf:  make([]*enforce.Node, b.dep.NumSubnets()+1),
	}
	ids := make([]topo.NodeID, 0, len(nodes))
	for id := range nodes {
		ids = append(ids, id)
	}
	for _, id := range topo.SortedIDs(ids) {
		n := nodes[id]
		c.nodeList = append(c.nodeList, n)
		if n.IsProxy {
			c.pxByAddr[n.Addr] = n
			c.proxyOf[n.SubnetIdx] = n
		} else {
			c.mbByAddr[n.Addr] = n
		}
	}
	key := func(ft netaddr.FiveTuple) netaddr.FiveTuple { return ft }
	if spec.churn {
		// flow_churn rewrites a template's source host and port per
		// variant, so templates must differ in the fields that stay.
		key = func(ft netaddr.FiveTuple) netaddr.FiveTuple {
			ft.Src, ft.SrcPort = topo.SubnetPrefix(topo.SubnetIndexOf(ft.Src)).Addr(), 0
			return ft
		}
	}
	// The run's traffic, over all policies. The stricter flow_churn key
	// can leave one demand population short of steadyFlows distinct
	// templates; draw more until there are enough.
	flows := b.demands()
	for try := 0; ; try++ {
		c.templates, err = uniqueTuples(flows, steadyFlows, key)
		if err == nil {
			break
		}
		if try == 4 {
			return nil, st, err
		}
		flows = append(flows, b.demands()...)
	}
	if spec.churn {
		// A destination port no generated policy names, over UDP: these
		// flows scan the proxy's whole P_x and install a null entry.
		for i := 0; i < steadyFlows/4; i++ {
			ft := c.templates[i]
			ft.DstPort, ft.Proto = 9999, netaddr.ProtoUDP
			c.nullTemplates = append(c.nullTemplates, ft)
		}
	}
	st.rollout = time.Since(t0)
	return c, st, nil
}

// chainForwarder is the benchmark's enforce.Forwarder: Send hands the
// packet straight to the next middlebox's HandleArrival, or counts it as
// delivered when its outermost destination is a host. One per generator,
// so nothing in it is shared.
type chainForwarder struct {
	c   *chainBed
	rec *recorder // nil unless the phase is traced
	now int64

	delivered, anomalies, handlerErrs int64
	firstErr                          error
	recordHops                        bool
	hops                              []topo.NodeID
}

func (f *chainForwarder) Send(_ *enforce.Node, pkt *packet.Packet) {
	if f.rec != nil {
		f.rec.begin(spanForward)
	}
	if mb := f.c.mbByAddr[pkt.OutermostDst()]; mb != nil {
		if f.recordHops {
			f.hops = append(f.hops, mb.ID)
		}
		if f.rec != nil {
			f.rec.begin(spanArrival)
		}
		err := mb.HandleArrival(pkt, f.now, f)
		if f.rec != nil {
			f.rec.end()
		}
		if err != nil {
			f.fail(err)
		}
	} else {
		f.delivered++
		if pkt.IsEncapsulated() || pkt.Label() != 0 {
			f.anomalies++
		}
	}
	if f.rec != nil {
		f.rec.end()
	}
}

func (f *chainForwarder) SendControl(_ *enforce.Node, to netaddr.Addr, flow netaddr.FiveTuple) {
	if px := f.c.pxByAddr[to]; px != nil {
		px.HandleControl(flow, f.now)
		return
	}
	f.fail(fmt.Errorf("control message to unknown proxy %v", to))
}

func (f *chainForwarder) fail(err error) {
	f.handlerErrs++
	if f.firstErr == nil {
		f.firstErr = err
	}
}

// nullForwarder drops everything: the null run's forwarder.
type nullForwarder struct{}

func (nullForwarder) Send(*enforce.Node, *packet.Packet)                         {}
func (nullForwarder) SendControl(*enforce.Node, netaddr.Addr, netaddr.FiveTuple) {}

// generator is one closed-loop load goroutine's state, kept across phases
// so flow sequences continue where the previous phase stopped.
type generator struct {
	id      int
	c       *chainBed
	fwd     *chainForwarder
	payload [payloadBytes]byte
	seq     int64 // packets sent so far
	// nullPkt is the null run's packet. The null run measures the
	// generator's own work, so it leaves the shared packet pool (a call
	// into the packet layer, with its own ladder rung) out.
	nullPkt packet.Packet
	sent    int64
	lat     []float64 // sampled HandleOutbound wall times, ns
}

type phaseMode int

const (
	phasePlain  phaseMode = iota // drive the nodes
	phaseTraced                  // drive the nodes, recording spans
	phaseNull                    // generator only: no node call
)

// flowAt returns the five-tuple of the generator's i-th packet. In the
// steady workloads the generator replays its half of the templates round
// robin. In flow_churn it walks blocks of churnBlock new flows, sending
// every flow's first packet and then every flow's second, and no flow
// ever returns: a variant number moves the source port and host.
func (g *generator) flowAt(i int64) netaddr.FiveTuple {
	c := g.c
	if !c.spec.churn {
		n := int64(len(c.templates) / generators)
		return c.templates[int(i%n)*generators+g.id]
	}
	const per = churnBlock * churnPacketsPerFlow
	flow := (i/per)*churnBlock + i%churnBlock // this generator's flow number
	var ft netaddr.FiveTuple
	var variant int64
	if flow%churnNullEvery == churnNullEvery-1 {
		k := flow / churnNullEvery
		n := int64(len(c.nullTemplates) / generators)
		ft, variant = c.nullTemplates[int(k%n)*generators+g.id], k/n
	} else {
		k := flow - flow/churnNullEvery
		n := int64(len(c.templates) / generators)
		ft, variant = c.templates[int(k%n)*generators+g.id], k/n
	}
	ft.SrcPort = uint16(1024 + variant%churnVariantPorts)
	ft.Src = topo.HostAddr(topo.SubnetIndexOf(ft.Src), 1+int(variant/churnVariantPorts)%200)
	return ft
}

// run sends packets until the deadline (nanos() time) passes.
func (g *generator) run(mode phaseMode, deadline int64, sample bool) {
	c := g.c
	var fwd enforce.Forwarder = g.fwd
	if mode == phaseNull {
		fwd = nullForwarder{}
	}
	var rec *recorder
	var slot *traceSlot
	if mode == phaseTraced {
		slot = &c.tr.slots[g.id]
		rec = slot.rec
	}
	g.fwd.rec = rec
	for {
		for k := 0; k < deadlineEvery; k++ {
			i := g.seq
			g.seq++
			if rec != nil {
				rec.root(spanGen, i*generators+int64(g.id), 256)
			}
			ft := g.flowAt(i)
			p := &g.nullPkt
			if mode != phaseNull {
				p = packet.Get()
			}
			p.Inner = packet.Header{
				Src: ft.Src, Dst: ft.Dst, SrcPort: ft.SrcPort, DstPort: ft.DstPort,
				Proto: ft.Proto, TTL: packet.DefaultTTL,
			}
			p.PayloadLen = payloadBytes
			p.Payload = append(p.Payload[:0], g.payload[:]...)
			// The first payload bytes name the flow, so the web proxy's
			// content-keyed cache sees one object per flow.
			binary.LittleEndian.PutUint64(p.Payload, uint64(ft.Src)<<16|uint64(ft.SrcPort))
			now := i
			if c.spec.churn {
				now = c.clock.Add(1)
				if now%churnSweepEvery == 0 && mode != phaseNull {
					c.sweep(now, rec)
				}
			}
			g.fwd.now = now
			if mode == phaseNull {
				fwd.Send(nil, p)
				p.Reset()
				continue
			}
			proxy := c.proxyOf[topo.SubnetIndexOf(ft.Src)]
			var err error
			switch {
			case rec != nil:
				slot.pkt.Store(p)
				rec.begin(spanOutbound)
				err = proxy.HandleOutbound(p, now, fwd)
				rec.end()
				// The pool may hand p to the other generator next.
				slot.pkt.Store(nil)
			case sample && i%latencyEvery == 0:
				t0 := nanos()
				err = proxy.HandleOutbound(p, now, fwd)
				g.lat = append(g.lat, float64(nanos()-t0))
			default:
				err = proxy.HandleOutbound(p, now, fwd)
			}
			if err != nil {
				g.fwd.fail(err)
			}
			packet.Put(p)
			g.sent++
			if rec != nil {
				rec.end()
			}
		}
		if nanos() >= deadline {
			return
		}
	}
}

// warmedUp reports whether the warm-up has sent enough: every steady flow
// twice, or virtual time past the TTL plus two sweeps on flow_churn.
func (c *chainBed) warmedUp(gens []*generator, smoke bool) bool {
	if c.spec.churn {
		return smoke || c.clock.Load() >= churnTTL+2*churnSweepEvery
	}
	for _, g := range gens {
		if g.seq < int64(2*len(c.templates)/generators) {
			return false
		}
	}
	return true
}

// sweep expires idle soft state on every node, as a device driver would
// every churnSweepEvery of virtual time, and tracks the table population.
func (c *chainBed) sweep(now int64, rec *recorder) {
	if rec != nil {
		rec.begin(spanSweep)
	}
	for _, n := range c.nodeList {
		n.Sweep(now)
	}
	if rec != nil {
		rec.end()
	}
	c.noteEntries()
}

func (c *chainBed) noteEntries() {
	var total int64
	for _, n := range c.nodeList {
		total += int64(n.FlowTable().Len())
		if lt := n.LabelTable(); lt != nil {
			total += int64(lt.Len())
		}
	}
	if total > c.entriesPeak.Load() {
		c.entriesPeak.Store(total)
	}
}

// phaseStats is what one phase measured.
type phaseStats struct {
	packets int64
	elapsed time.Duration
}

func (p phaseStats) perSecond() float64 { return float64(p.packets) / p.elapsed.Seconds() }

// nsPerPacket is one generator's wall time per packet.
func (p phaseStats) nsPerPacket() float64 {
	return float64(p.elapsed.Nanoseconds()) * generators / float64(p.packets)
}

// runPhase runs every generator for d and returns the packets they sent
// and the wall time until the last one stopped.
func (c *chainBed) runPhase(gens []*generator, mode phaseMode, d time.Duration, sample bool) phaseStats {
	before := make([]int64, len(gens))
	for i, g := range gens {
		before[i] = g.seq
	}
	if mode == phaseTraced {
		c.tr.active.Store(true)
		defer c.tr.active.Store(false)
	}
	start := nanos()
	deadline := start + d.Nanoseconds()
	var wg sync.WaitGroup
	for _, g := range gens {
		wg.Add(1)
		go func(g *generator) {
			defer wg.Done()
			g.run(mode, deadline, sample)
		}(g)
	}
	wg.Wait()
	st := phaseStats{elapsed: time.Duration(nanos() - start)}
	for i, g := range gens {
		st.packets += g.seq - before[i]
	}
	return st
}

// chainWindows splits the measured time; the median window's rate is the
// throughput, so a stall of the host inside one window does not move it.
const chainWindows = 10

// runWindows runs the phase as chainWindows back-to-back windows and
// returns their sum and the median of their rates.
func (c *chainBed) runWindows(gens []*generator, mode phaseMode, d time.Duration, sample bool) (phaseStats, float64) {
	var sum phaseStats
	rates := make([]float64, 0, chainWindows)
	for i := 0; i < chainWindows; i++ {
		st := c.runPhase(gens, mode, d/chainWindows, sample)
		sum.packets += st.packets
		sum.elapsed += st.elapsed
		rates = append(rates, st.perSecond())
	}
	return sum, median(rates)
}

// counterTotals sums the node counters and table statistics.
type counterTotals struct {
	enforce.Counters
	tableHits, tableMisses, expired int64
}

func (c *chainBed) totals() counterTotals {
	var t counterTotals
	for _, n := range c.nodeList {
		s := n.CountersSnapshot()
		t.PacketsIn += s.PacketsIn
		t.Load += s.Load
		t.Classified += s.Classified
		t.TunnelTx += s.TunnelTx
		t.LabelTx += s.LabelTx
		t.PlainTx += s.PlainTx
		t.ControlTx += s.ControlTx
		t.Dropped += s.Dropped
		t.Served += s.Served
		t.NoProvider += s.NoProvider
		t.LabelMiss += s.LabelMiss
		t.Misdirected += s.Misdirected
		fs := n.FlowTable().Stats()
		t.tableHits += int64(fs.Hits + fs.NullHits)
		t.tableMisses += int64(fs.Misses)
		t.expired += int64(fs.Expired)
		if lt := n.LabelTable(); lt != nil {
			ls := lt.Stats()
			t.tableHits += int64(ls.Hits)
			t.tableMisses += int64(ls.Misses)
			t.expired += int64(ls.Expired)
		}
	}
	return t
}

// checkHops sends one packet on each of hopCheckFlows flows with the
// forwarder recording the middleboxes it visits, and compares the
// sequence with the plan enforce.TraceFlow computes for the same tuple.
func (c *chainBed) checkHops(g *generator) error {
	g.fwd.rec = nil
	step := len(c.templates) / hopCheckFlows
	for k := 0; k < hopCheckFlows; k++ {
		ft := c.templates[k*step]
		if c.spec.churn {
			if k%churnNullEvery == 0 {
				ft = c.nullTemplates[k%len(c.nullTemplates)]
			}
			ft.SrcPort = 1000 // below every generated variant: a new flow
		}
		plan, err := enforce.TraceFlow(c.nodes, c.bed.dep, c.bed.ap, ft)
		if err != nil {
			return fmt.Errorf("TraceFlow %v: %w", ft, err)
		}
		p := packet.New(ft, payloadBytes)
		p.Payload = make([]byte, payloadBytes)
		// A payload no generated packet carries, so a web proxy on the
		// chain misses its cache and the packet runs the whole plan.
		binary.LittleEndian.PutUint64(p.Payload, ^uint64(k))
		g.fwd.now = g.seq
		if c.spec.churn {
			g.fwd.now = c.clock.Add(1)
		}
		g.fwd.recordHops, g.fwd.hops = true, g.fwd.hops[:0]
		err = c.proxyOf[topo.SubnetIndexOf(ft.Src)].HandleOutbound(p, g.fwd.now, g.fwd)
		g.fwd.recordHops = false
		g.sent++
		if err != nil {
			return fmt.Errorf("flow %v: %w", ft, err)
		}
		if len(g.fwd.hops) != len(plan.Hops) {
			return fmt.Errorf("flow %v visited %v, plan %v", ft, g.fwd.hops, plan)
		}
		for i, h := range plan.Hops {
			if g.fwd.hops[i] != h.Node {
				return fmt.Errorf("flow %v visited %v, plan %v", ft, g.fwd.hops, plan)
			}
		}
	}
	return nil
}

// chainRun is what the phases of one chain workload measured.
type chainRun struct {
	null, plain, traced phaseStats
	plainRate           float64 // median window rate of the plain phase
	before, after       counterTotals
	pool0, pool1        [2]int64 // packet pool hits, misses
	mallocs             uint64
	lat                 latencies // sampled HandleOutbound wall times, ns
}

// runChain runs one in-process dataplane workload.
func runChain(spec chainSpec, cfg runConfig) (*result, error) {
	res := newResult(spec.name, cfg)
	var tr *tracer
	if cfg.trace {
		tr = newTracer(generators)
	}
	var c *chainBed
	setups, err := cfg.repeatSetup(func() (st setupTimes, err error) {
		c, st, err = setupChain(spec, cfg, tr)
		return st, err
	})
	if err != nil {
		return nil, err
	}
	res.setup(setups)

	gens := make([]*generator, generators)
	for i := range gens {
		gens[i] = &generator{id: i, c: c, fwd: &chainForwarder{c: c}}
		for j := range gens[i].payload {
			gens[i].payload[j] = byte('a' + j%26)
		}
	}

	// Warm-up, discarded: caches fill, every steady flow is established
	// (two passes over the flow set: the second packet of a label-switched
	// flow is the first to ride its label), and flow_churn's tables reach
	// their expiry-bounded population.
	warm := cfg.warmup()
	c.runPhase(gens, phasePlain, warm, false)
	for i := 0; i < 64 && !c.warmedUp(gens, cfg.smoke); i++ {
		c.runPhase(gens, phasePlain, warm/4, false)
	}

	var r chainRun
	r.null = c.runPhase(gens, phaseNull, cfg.nullRun(), false)
	for _, g := range gens {
		g.lat = make([]float64, 0, 1<<16)
	}
	measure := cfg.measure()
	if cfg.trace {
		measure /= 2
	}
	var ms0, ms1 runtime.MemStats
	r.pool0[0], r.pool0[1] = packet.PoolStats()
	r.before = c.totals()
	runtime.ReadMemStats(&ms0)
	r.plain, r.plainRate = c.runWindows(gens, phasePlain, measure, true)
	runtime.ReadMemStats(&ms1)
	r.after = c.totals()
	r.pool1[0], r.pool1[1] = packet.PoolStats()
	r.mallocs = ms1.Mallocs - ms0.Mallocs
	if cfg.trace {
		r.traced, _ = c.runWindows(gens, phaseTraced, measure, false)
	}
	var lat []float64
	for _, g := range gens {
		lat = append(lat, g.lat...)
		g.lat = nil // the samples are the harness's, not soft state held
	}
	r.lat, lat = summarize(lat), nil

	c.noteEntries()
	res.E2E["enforced_per_s"] = r.plainRate
	res.E2E["op_latency_p50_us"] = r.lat.p50 / 1e3
	res.E2E["live_heap_mb"] = heldHeapMB()
	res.samples("op_latency", r.lat.n)
	res.notef("%d packets in %.2fs (median of %d windows) over %d generators, %d flows, in process",
		r.plain.packets, r.plain.elapsed.Seconds(), chainWindows, generators, len(c.templates))

	c.verify(res, gens, &r, cfg)
	if !cfg.trace {
		return res, nil
	}
	c.perLayer(res, &r, cfg)
	path, err := tr.write(cfg.resultsDir, spec.name, res.Fingerprint)
	if err != nil {
		return nil, err
	}
	res.notef("spans written to %s", path)
	return res, nil
}

// verify runs the correctness checks over everything sent since the nodes
// were built, and the harness self-check.
func (c *chainBed) verify(res *result, gens []*generator, r *chainRun, cfg runConfig) {
	res.check("hop-sequence", c.checkHops(gens[0]))
	all := c.totals()
	var sent, delivered, anomalies, handlerErrs int64
	var firstErr error
	for _, g := range gens {
		sent += g.sent
		delivered += g.fwd.delivered
		anomalies += g.fwd.anomalies
		handlerErrs += g.fwd.handlerErrs
		if firstErr == nil {
			firstErr = g.fwd.firstErr
		}
	}
	lost := sent - delivered - all.Dropped - all.Served
	bad := handlerErrs + all.Misdirected + all.NoProvider + all.LabelMiss
	res.Attempted, res.Failed = sent, max(lost, bad)
	if lost != 0 {
		res.check("packet-conservation", fmt.Errorf("sent %d, delivered %d + dropped %d + served %d leaves %d",
			sent, delivered, all.Dropped, all.Served, lost))
	}
	if bad != 0 {
		res.check("enforce-errors", fmt.Errorf("%d handler errors (first: %v), %d misdirected, %d no-provider, %d label-miss",
			handlerErrs, firstErr, all.Misdirected, all.NoProvider, all.LabelMiss))
	}
	if anomalies != 0 {
		res.check("delivered-clean", fmt.Errorf("%d delivered packets still encapsulated or labelled", anomalies))
	}
	// A check on the measurement itself, which needs a full-size run.
	if gen, pkt := r.null.nsPerPacket(), r.plain.nsPerPacket(); !cfg.smoke && gen > genBudgetShare*pkt {
		res.check("harness-share", fmt.Errorf("generator alone costs %.0f ns of %.0f ns per packet (limit %.0f%%)",
			gen, pkt, 100*genBudgetShare))
	}
}

// perLayer fills the traced run's metrics: counters over the plain phase,
// spans over the traced phase, ladder over the workload's own keys.
func (c *chainBed) perLayer(res *result, r *chainRun, cfg runConfig) {
	pk := float64(r.plain.packets)
	before, after := r.before, r.after
	d := func(a, b int64) float64 { return float64(b - a) }
	L := res.Layer
	L["bench.failed_share"] = float64(res.Failed) / float64(res.Attempted)
	L["bench.gen_ns_per_pkt"] = r.null.nsPerPacket()
	L["bench.allocs_per_pkt"] = float64(r.mallocs) / pk
	L["bench.op_latency_p95_us"] = r.lat.p95 / 1e3
	L["bench.op_latency_p99_us"] = r.lat.p99 / 1e3
	L["bench.trace_overhead_share"] = r.traced.nsPerPacket()/r.plain.nsPerPacket() - 1
	L["enforce.hops_per_pkt"] = d(before.Load, after.Load) / pk
	L["enforce.classified_per_pkt"] = d(before.Classified, after.Classified) / pk
	if tx := d(before.TunnelTx, after.TunnelTx) + d(before.LabelTx, after.LabelTx); tx > 0 {
		L["enforce.tunnel_tx_share"] = d(before.TunnelTx, after.TunnelTx) / tx
		L["enforce.label_tx_share"] = d(before.LabelTx, after.LabelTx) / tx
	}
	L["enforce.errors"] = d(before.NoProvider+before.LabelMiss+before.Misdirected, after.NoProvider+after.LabelMiss+after.Misdirected)
	if lookups := d(before.tableHits, after.tableHits) + d(before.tableMisses, after.tableMisses); lookups > 0 {
		L["flowtable.hit_share"] = d(before.tableHits, after.tableHits) / lookups
	}
	L["flowtable.entries_peak"] = float64(c.entriesPeak.Load())
	L["flowtable.expired_per_pkt"] = d(before.expired, after.expired) / pk
	if gets := d(r.pool0[0], r.pool1[0]) + d(r.pool0[1], r.pool1[1]); gets > 0 {
		L["packet.pool_miss_share"] = d(r.pool0[1], r.pool1[1]) / gets
	}
	if load := d(before.Load, after.Load); load > 0 {
		L["nf.drop_share"] = d(before.Dropped, after.Dropped) / load
		L["nf.serve_share"] = d(before.Served, after.Served) / load
	}

	agg := c.tr.merged()
	tp := float64(r.traced.packets)
	var selfSum, nfTotal int64
	for n, a := range agg {
		selfSum += a.SelfNS
		if n >= spanNFBase {
			nfTotal += a.TotalNS
		}
	}
	coverage := float64(selfSum) / (float64(r.traced.elapsed.Nanoseconds()) * generators)
	L["bench.self_time_coverage"] = coverage
	L["bench.forward_ns"] = float64(agg[spanForward].SelfNS) / float64(max(agg[spanForward].Count, 1))
	L["enforce.proxy_self_ns"] = float64(agg[spanOutbound].SelfNS) / tp
	L["enforce.mb_self_ns"] = float64(agg[spanArrival].SelfNS) / float64(max(agg[spanArrival].Count, 1))
	L["enforce.sweep_us"] = agg[spanSweep].meanNS() / 1e3
	L["nf.span_ns_per_pkt"] = float64(nfTotal) / tp
	res.notef("traced phase: %d packets; self time per packet: gen %.0f + proxy %.0f + forward %.0f + middlebox %.0f + nf %.0f + sweep %.0f ns = %.0f of %.0f ns wall",
		r.traced.packets, float64(agg[spanGen].SelfNS)/tp, float64(agg[spanOutbound].SelfNS)/tp,
		float64(agg[spanForward].SelfNS)/tp, float64(agg[spanArrival].SelfNS)/tp, float64(nfTotal)/tp,
		float64(agg[spanSweep].SelfNS)/tp, float64(selfSum)/tp, r.traced.nsPerPacket())
	if !cfg.smoke && (coverage < 0.85 || coverage > 1.15) {
		res.check("self-time-coverage", fmt.Errorf("span self times cover %.2f of the traced wall time", coverage))
	}
	c.ladder(res, cfg.rungs())
}

// largestPolicySet returns the longest relevant-policy list any node holds.
func (c *chainBed) largestPolicySet() []*policy.Policy {
	var best []*policy.Policy
	for _, n := range c.nodeList {
		if p := n.Config().Policies; len(p) > len(best) {
			best = p
		}
	}
	return best
}
