package sim

import (
	"fmt"

	"sdme/internal/enforce"
	"sdme/internal/netaddr"
	"sdme/internal/ospf"
	"sdme/internal/packet"
	"sdme/internal/topo"
)

// Stats aggregates network-level simulation counters.
type Stats struct {
	PacketsInjected int64
	Delivered       int64
	// ServedLocally counts packets answered by a web-proxy cache hit and
	// DroppedPolicy packets denied by a firewall (both terminate inside
	// the network by design).
	ServedLocally int64
	DroppedPolicy int64
	// DroppedTTL / DroppedNoRoute are forwarding failures.
	DroppedTTL     int64
	DroppedNoRoute int64
	// Misdelivered counts data packets that landed on a device that
	// could not handle them.
	Misdelivered int64
	// DroppedDown counts packets that arrived at (or were injected
	// through) a device marked down via SetNodeDown — the blackhole a
	// crashed middlebox or proxy creates until the controller repairs the
	// plan. Recovery experiments read outage cost off this counter.
	DroppedDown int64
	// PacketHops counts router-to-router transmissions (fragment copies
	// included) — a network-wide work measure.
	PacketHops int64
	// FragmentsCreated counts extra packets created by MTU fragmentation
	// (k fragments of one packet count k-1); Reassemblies counts
	// reassembly operations at middleboxes and destinations. The §III-E
	// ablation drives these to zero with label switching.
	FragmentsCreated int64
	Reassemblies     int64
	// ControlMessages counts §III-E control packets.
	ControlMessages int64
	// ProxyLoopbacks counts the router→proxy→router round trips paid by
	// off-path proxies (§III-A): one per outbound packet from a subnet
	// whose proxy is deployed off-path.
	ProxyLoopbacks int64
	// EnforcementErrors counts dataplane errors (no provider, label
	// miss, misdirection).
	EnforcementErrors int64
	// QueueDelayTotalUS / QueueDelayMaxUS aggregate middlebox queueing
	// (only when service rates are set via SetServiceRate): the time
	// packets wait for a busy middlebox. This is what the paper's load
	// factor λ > 1 means physically.
	QueueDelayTotalUS int64
	QueueDelayMaxUS   int64
	QueuedPackets     int64
	// LatencyTotalUS / LatencyMaxUS / LatencyCount aggregate end-to-end
	// delivery latency of data packets.
	LatencyTotalUS int64
	LatencyMaxUS   int64
	LatencyCount   int64
}

// AvgQueueDelayUS returns the mean middlebox queueing delay.
func (s Stats) AvgQueueDelayUS() float64 {
	if s.QueuedPackets == 0 {
		return 0
	}
	return float64(s.QueueDelayTotalUS) / float64(s.QueuedPackets)
}

// AvgLatencyUS returns the mean end-to-end delivery latency.
func (s Stats) AvgLatencyUS() float64 {
	if s.LatencyCount == 0 {
		return 0
	}
	return float64(s.LatencyTotalUS) / float64(s.LatencyCount)
}

// deviceLinkDelayUS is the delay of the device-to-router link when the
// topology does not specify one.
const deviceLinkDelayUS = 20

// Network binds an engine, a routed topology and the enforcement nodes
// into a runnable simulation.
type Network struct {
	Engine *Engine
	g      *topo.Graph
	dom    *ospf.Domain
	dep    *enforce.Deployment
	nodes  map[topo.NodeID]*enforce.Node
	stats  Stats
	fwd    *simForwarder
	// DeliveredTo records per-destination-address delivered packet
	// counts for tests.
	DeliveredTo map[netaddr.Addr]int64
	// serviceRate models finite middlebox capacity in packets/second;
	// busyUntil tracks each middlebox's queue horizon.
	serviceRate map[topo.NodeID]float64
	busyUntil   map[topo.NodeID]int64
	// born timestamps injected packets for end-to-end latency.
	born map[*packet.Packet]int64
	// down marks crashed devices: packets addressed to them blackhole
	// (DroppedDown) until the node is marked up again.
	down map[topo.NodeID]bool

	// Observability attachments (observe.go); all nil/empty unless
	// AttachMetrics / SetTracer were called.
	m       *simMetrics
	tracer  *enforce.RuntimeTracer
	pktHops map[*packet.Packet]int64
}

// New assembles a simulation over a converged OSPF domain. The nodes map
// must contain every proxy and middlebox of the deployment.
func New(g *topo.Graph, dom *ospf.Domain, dep *enforce.Deployment, nodes map[topo.NodeID]*enforce.Node) *Network {
	nw := &Network{
		Engine:      NewEngine(),
		g:           g,
		dom:         dom,
		dep:         dep,
		nodes:       nodes,
		DeliveredTo: make(map[netaddr.Addr]int64),
		serviceRate: make(map[topo.NodeID]float64),
		busyUntil:   make(map[topo.NodeID]int64),
		born:        make(map[*packet.Packet]int64),
		down:        make(map[topo.NodeID]bool),
		pktHops:     make(map[*packet.Packet]int64),
	}
	nw.fwd = &simForwarder{nw: nw}
	return nw
}

// Stats returns a copy of the counters.
func (nw *Network) Stats() Stats { return nw.stats }

// SetServiceRate models finite processing capacity at a middlebox:
// packets are served one at a time at `pktsPerSec`; arrivals during
// service queue up (FIFO). Zero removes the limit. The paper's capacity
// C(x) corresponds to this rate; overload (λ > 1) shows up as unbounded
// queueing delay.
func (nw *Network) SetServiceRate(id topo.NodeID, pktsPerSec float64) {
	if pktsPerSec <= 0 {
		delete(nw.serviceRate, id)
		return
	}
	nw.serviceRate[id] = pktsPerSec
}

// SetNodeDown marks a device crashed (or recovered). A down device
// blackholes every packet addressed to it — the network keeps routing
// toward it, exactly as a traditional network would, because routing
// never knew about the middlebox in the first place (§II). Fault
// schedules drive this from faultinject events.
//
// Every other node's liveness view is updated at the same time (the sim
// analogue of the live runtime's health-monitor detection), so
// enforce.SelectNext fails over locally to backup candidates — and on a
// crash, soft state pinned to the dead device is purged immediately
// (enforce.Node.InvalidateProvider) instead of blackholing until TTL.
func (nw *Network) SetNodeDown(id topo.NodeID, down bool) {
	if down {
		nw.down[id] = true
	} else {
		delete(nw.down, id)
	}
	for nid, n := range nw.nodes {
		if nid == id {
			continue
		}
		if n.SetProviderDown(id, down) && down {
			n.InvalidateProvider(id)
		}
	}
}

// transit is one packet (or its fragment train) moving through routers.
type transit struct {
	pkt *packet.Packet
	// copies is the current number of fragments the packet travels as
	// (1 = unfragmented). Fragmentation is accounted, and the fragments
	// are logically reassembled at the receiving device; see DESIGN.md.
	copies  int
	deliver func(dev topo.NodeID, now int64)
	subnet  func(addr netaddr.Addr, now int64) // delivery into a stub subnet with no device node
}

// InjectFlow schedules a flow's packets from its source subnet's proxy:
// `packets` packets of `bytes` bytes each, starting at `start`, one every
// `gap` microseconds.
func (nw *Network) InjectFlow(ft netaddr.FiveTuple, packets, bytes int, start, gap int64) error {
	srcSub := nw.dep.SubnetIndexOf(ft.Src)
	proxyID, ok := nw.dep.ProxyFor(srcSub)
	if !ok {
		return fmt.Errorf("sim: flow %v: no proxy for source subnet %d", ft, srcSub)
	}
	proxy := nw.nodes[proxyID]
	if proxy == nil {
		return fmt.Errorf("sim: proxy %v not materialized", proxyID)
	}
	// Off-path proxies (§III-A) cost an extra router→proxy leg before
	// the proxy sees the packet: traffic from the subnet hits the edge
	// router first, which loops it out to the proxy.
	var loopDelay int64
	if nw.g.Node(proxyID).OffPath {
		loopDelay = 2 * deviceLinkDelayUS
	}
	for i := 0; i < packets; i++ {
		at := start + int64(i)*gap + loopDelay
		nw.Engine.After(at-nw.Engine.Now(), func() {
			nw.stats.PacketsInjected++
			if nw.down[proxyID] {
				// The subnet's proxy is dead: outbound traffic blackholes
				// at the first hop until it recovers.
				nw.stats.DroppedDown++
				return
			}
			if loopDelay > 0 {
				nw.stats.ProxyLoopbacks++
			}
			pkt := packet.New(ft, bytes)
			nw.born[pkt] = nw.Engine.Now()
			if err := proxy.HandleOutbound(pkt, nw.Engine.Now(), nw.fwd); err != nil {
				nw.stats.EnforcementErrors++
			}
		})
	}
	return nil
}

// Run processes events until `until` microseconds (<= 0: drain).
func (nw *Network) Run(until int64) int64 { return nw.Engine.Run(until) }

// simForwarder adapts the network to the enforcement layer.
type simForwarder struct{ nw *Network }

var _ enforce.Forwarder = (*simForwarder)(nil)

func (f *simForwarder) Send(from *enforce.Node, pkt *packet.Packet) {
	nw := f.nw
	tr := &transit{
		pkt:    pkt,
		copies: 1,
		deliver: func(dev topo.NodeID, now int64) {
			nw.deliverData(dev, pkt, now)
		},
		subnet: func(addr netaddr.Addr, now int64) {
			nw.stats.Delivered++
			nw.DeliveredTo[addr]++
			nw.recordLatency(pkt, now)
		},
	}
	nw.leaveDevice(from.ID, tr)
}

func (f *simForwarder) SendControl(from *enforce.Node, to netaddr.Addr, flow netaddr.FiveTuple) {
	nw := f.nw
	nw.stats.ControlMessages++
	// Control messages are small (never fragment) and routed like any
	// packet toward the proxy's address.
	ctrl := packet.New(netaddr.FiveTuple{Src: from.Addr, Dst: to, Proto: netaddr.ProtoUDP}, 20)
	tr := &transit{
		pkt:    ctrl,
		copies: 1,
		deliver: func(dev topo.NodeID, now int64) {
			n := nw.nodes[dev]
			if n == nil || !n.IsProxy {
				nw.stats.Misdelivered++
				return
			}
			n.HandleControl(flow, now)
		},
		subnet: func(netaddr.Addr, int64) { nw.stats.Misdelivered++ },
	}
	nw.leaveDevice(from.ID, tr)
}

// leaveDevice moves a transit from a proxy/middlebox onto its attachment
// router.
func (nw *Network) leaveDevice(dev topo.NodeID, tr *transit) {
	router := nw.g.Node(dev).Attach
	if router == topo.InvalidNode {
		nw.stats.DroppedNoRoute++
		return
	}
	delay := nw.linkDelay(dev, router, tr)
	nw.Engine.After(delay, func() { nw.hop(router, tr) })
}

// hop is one router's forwarding decision for a transit.
func (nw *Network) hop(router topo.NodeID, tr *transit) {
	dst := tr.pkt.OutermostDst()
	rt, ok := nw.dom.Table(router).Lookup(dst)
	if !ok {
		nw.stats.DroppedNoRoute++
		return
	}
	if rt.Local {
		if rt.NextHop == router {
			// Delivery into this router's stub subnet (or to the router
			// itself).
			nw.reassembleAtEdge(tr)
			tr.subnet(dst, nw.Engine.Now())
			return
		}
		delay := nw.linkDelay(router, rt.NextHop, tr)
		nw.Engine.After(delay, func() {
			nw.reassembleAtEdge(tr)
			tr.deliver(rt.NextHop, nw.Engine.Now())
		})
		return
	}

	// Router-to-router forwarding: decrement TTL on the outermost header.
	h := tr.pkt.OutermostHeader()
	if h.TTL <= 1 {
		nw.stats.DroppedTTL++
		return
	}
	h.TTL--
	delay := nw.linkDelay(router, rt.NextHop, tr)
	nw.stats.PacketHops += int64(tr.copies)
	if nw.m != nil {
		nw.m.hopLat.Observe(delay)
		if _, tracked := nw.born[tr.pkt]; tracked {
			nw.pktHops[tr.pkt]++
		}
	}
	nw.Engine.After(delay, func() { nw.hop(rt.NextHop, tr) })
}

// linkDelay computes propagation + transmission delay for the link
// between a and b, applying MTU fragmentation accounting.
func (nw *Network) linkDelay(a, b topo.NodeID, tr *transit) int64 {
	for _, adj := range nw.g.Neighbors(a) {
		if adj.Neighbor != b {
			continue
		}
		l := nw.g.Link(adj.LinkIdx)
		size := tr.pkt.Size()
		if size > l.MTU && l.MTU > packet.HeaderLen {
			// ceil of payload split across (MTU - header) chunks.
			per := l.MTU - packet.HeaderLen
			k := (size - packet.HeaderLen + per - 1) / per
			if k > tr.copies {
				nw.stats.FragmentsCreated += int64(k - tr.copies)
				tr.copies = k
			}
		}
		delay := l.DelayUS
		if delay == 0 {
			delay = deviceLinkDelayUS
		}
		if l.BandwidthBPS > 0 {
			onWire := size + (tr.copies-1)*packet.HeaderLen
			delay += int64(onWire) * 8 * 1e6 / l.BandwidthBPS
		}
		return delay
	}
	// No direct link (should not happen with consistent tables).
	nw.stats.DroppedNoRoute++
	return deviceLinkDelayUS
}

// reassembleAtEdge models reassembly of a fragment train before handing
// the packet to a device or subnet.
func (nw *Network) reassembleAtEdge(tr *transit) {
	if tr.copies > 1 {
		nw.stats.Reassemblies++
		tr.copies = 1
	}
}

// deliverData hands a data packet to the device that owns its outermost
// destination address.
func (nw *Network) deliverData(dev topo.NodeID, pkt *packet.Packet, now int64) {
	if nw.down[dev] {
		nw.stats.DroppedDown++
		return
	}
	kind := nw.g.Node(dev).Kind
	switch kind {
	case topo.KindMiddlebox:
		n := nw.nodes[dev]
		if n == nil {
			nw.stats.Misdelivered++
			return
		}
		// Finite service rate: queue behind the middlebox's backlog.
		if rate, ok := nw.serviceRate[dev]; ok {
			start := now
			if b := nw.busyUntil[dev]; b > start {
				start = b
			}
			service := int64(1e6 / rate)
			if service < 1 {
				service = 1
			}
			nw.busyUntil[dev] = start + service
			wait := start - now
			nw.stats.QueuedPackets++
			nw.stats.QueueDelayTotalUS += wait
			if wait > nw.stats.QueueDelayMaxUS {
				nw.stats.QueueDelayMaxUS = wait
			}
			if nw.m != nil {
				nw.m.queue.Observe(wait)
			}
			// Queue trace: only tunneled packets carry the original tuple
			// in their inner header; labeled ones are rewritten, so skip.
			if nw.tracer != nil && pkt.IsEncapsulated() {
				if ft := pkt.FiveTuple(); nw.tracer.Sampled(ft) {
					nw.tracer.Record(enforce.HopRecord{
						Flow: ft, Node: dev, Event: enforce.HopQueue,
						AtUS: now,
					})
				}
			}
			done := nw.busyUntil[dev]
			nw.Engine.After(done-now, func() {
				nw.processAtMiddlebox(n, pkt, done)
			})
			return
		}
		nw.processAtMiddlebox(n, pkt, now)
	case topo.KindHost:
		nw.stats.Delivered++
		nw.DeliveredTo[nw.g.Node(dev).Addr]++
		nw.recordLatency(pkt, now)
	case topo.KindProxy:
		// Data packets addressed to a proxy indicate a config error.
		nw.stats.Misdelivered++
	default:
		nw.stats.Misdelivered++
	}
}

// processAtMiddlebox runs the dataplane on a packet that has cleared the
// middlebox's (possibly queued) service.
func (nw *Network) processAtMiddlebox(n *enforce.Node, pkt *packet.Packet, now int64) {
	before := n.Counters
	if err := n.HandleArrival(pkt, now, nw.fwd); err != nil {
		nw.stats.EnforcementErrors++
		return
	}
	after := n.Counters
	nw.stats.DroppedPolicy += after.Dropped - before.Dropped
	nw.stats.ServedLocally += after.Served - before.Served
}

// recordLatency closes a packet's end-to-end timing if it was injected
// through InjectFlow.
func (nw *Network) recordLatency(pkt *packet.Packet, now int64) {
	bornAt, ok := nw.born[pkt]
	if !ok {
		return
	}
	delete(nw.born, pkt)
	lat := now - bornAt
	nw.stats.LatencyCount++
	nw.stats.LatencyTotalUS += lat
	if lat > nw.stats.LatencyMaxUS {
		nw.stats.LatencyMaxUS = lat
	}
	if nw.m != nil {
		nw.m.delivered.Inc()
		nw.m.e2e.Observe(lat)
		nw.m.hops.Observe(nw.pktHops[pkt])
		delete(nw.pktHops, pkt)
	}
}

// MiddleboxLoads reports each middlebox's processed-packet count — the
// same metric the flow-level evaluator computes, enabling cross-checks.
func (nw *Network) MiddleboxLoads() map[topo.NodeID]int64 {
	out := make(map[topo.NodeID]int64, len(nw.dep.MBNodes))
	for _, id := range nw.dep.MBNodes {
		if n := nw.nodes[id]; n != nil {
			out[id] = n.Counters.Load
		}
	}
	return out
}
