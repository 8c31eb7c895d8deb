package enforce

import (
	"strconv"
	"sync"
	"sync/atomic"

	"sdme/internal/flowtable"
	"sdme/internal/metrics"
	"sdme/internal/netaddr"
	"sdme/internal/policy"
	"sdme/internal/topo"
)

// Metric family names the dataplane emits. Sim and live runs share this
// code, so both substrates expose identical names — the conformance
// suite asserts that. Every family but the sdme_func_* counters is read
// from the node at exposition (SetMetrics).
const (
	MetricPacketsIn  = "sdme_node_packets_in_total"
	MetricFuncPkts   = "sdme_func_packets_total"
	MetricFuncBytes  = "sdme_func_bytes_total"
	MetricFuncDrops  = "sdme_func_drops_total"
	MetricFuncServes = "sdme_func_serves_total"
	MetricFailovers  = "sdme_node_failovers_total"
	// MetricFlowShardEntries / MetricLabelShardEntries are per-shard
	// occupancy gauges of the lock-striped soft-state tables.
	MetricFlowShardEntries  = "sdme_flowtable_shard_entries"
	MetricLabelShardEntries = "sdme_labeltable_shard_entries"
	// MetricFlowTableEvents is the activity of a node's flow table since
	// it was built (flowtable.Stats), label event=hit|miss|null_hit|
	// inserted|expired. A miss is a §III-D classification, so miss over
	// inserted+null-inserted is the classifications per flow.
	MetricFlowTableEvents = "sdme_flowtable_events"
	// MetricTx is a node's transmissions since it was built, by §III-E
	// mode: label mode=tunnel|label|plain|control (the TunnelTx, LabelTx,
	// PlainTx and ControlTx counters).
	MetricTx = "sdme_node_tx"
)

// funcMetrics caches one (node, func) series triple so the hot path
// avoids registry lookups.
type funcMetrics struct {
	packets, bytes, drops, serves *metrics.Counter
}

// nodeMetrics is a node's attachment to a registry: the registry its
// reads are registered with, and its function counters.
type nodeMetrics struct {
	reg     *metrics.Registry
	perFunc map[policy.FuncType]*funcMetrics
}

// SetMetrics attaches a metrics registry to the node. The dataplane
// counts per-(node, function) packets, bytes, drops and cache serves into
// it; everything else the registry reads from the node whenever it writes
// its exposition: packets in, failovers, transmissions by mode, flow-table
// events and per-shard table occupancy. nil detaches: the read series
// leave the exposition, the function counters keep their values. Call
// before the node's owner (simulator event loop or live device goroutine)
// starts driving it.
func (n *Node) SetMetrics(reg *metrics.Registry) {
	if n.nm != nil {
		n.nm.reg.Unread(n)
	}
	n.nm = nil
	if reg == nil {
		return
	}
	node := strconv.Itoa(int(n.ID))
	c := &n.Counters
	reg.ReadCounter(MetricPacketsIn, n, func(emit metrics.Emit) {
		emit(float64(atomic.LoadInt64(&c.PacketsIn)), "node", node)
	})
	reg.ReadCounter(MetricFailovers, n, func(emit metrics.Emit) {
		emit(float64(atomic.LoadInt64(&c.Failovers)), "node", node)
	})
	reg.ReadGauge(MetricTx, n, func(emit metrics.Emit) {
		emit(float64(atomic.LoadInt64(&c.TunnelTx)), "node", node, "mode", "tunnel")
		emit(float64(atomic.LoadInt64(&c.LabelTx)), "node", node, "mode", "label")
		emit(float64(atomic.LoadInt64(&c.PlainTx)), "node", node, "mode", "plain")
		emit(float64(atomic.LoadInt64(&c.ControlTx)), "node", node, "mode", "control")
	})
	reg.ReadGauge(MetricFlowTableEvents, n, func(emit metrics.Emit) {
		if flows, _ := n.tables(); flows != nil {
			st := flows.Stats()
			emit(float64(st.Hits), "node", node, "event", "hit")
			emit(float64(st.Misses), "node", node, "event", "miss")
			emit(float64(st.NullHits), "node", node, "event", "null_hit")
			emit(float64(st.Inserted), "node", node, "event", "inserted")
			emit(float64(st.Expired), "node", node, "event", "expired")
		}
	})
	reg.ReadGauge(MetricFlowShardEntries, n, func(emit metrics.Emit) {
		if flows, _ := n.tables(); flows != nil {
			for i := 0; i < flows.Shards(); i++ {
				emit(float64(flows.ShardLen(i)), "node", node, "shard", strconv.Itoa(i))
			}
		}
	})
	reg.ReadGauge(MetricLabelShardEntries, n, func(emit metrics.Emit) {
		if _, labels := n.tables(); labels != nil {
			for i := 0; i < labels.Shards(); i++ {
				emit(float64(labels.ShardLen(i)), "node", node, "shard", strconv.Itoa(i))
			}
		}
	})
	nm := &nodeMetrics{reg: reg, perFunc: make(map[policy.FuncType]*funcMetrics, len(n.Funcs))}
	for f := range n.Funcs {
		nm.perFunc[f] = &funcMetrics{
			packets: reg.Counter(MetricFuncPkts, "node", node, "func", f.String()),
			bytes:   reg.Counter(MetricFuncBytes, "node", node, "func", f.String()),
			drops:   reg.Counter(MetricFuncDrops, "node", node, "func", f.String()),
			serves:  reg.Counter(MetricFuncServes, "node", node, "func", f.String()),
		}
	}
	n.nm = nm
}

// tables returns the node's soft-state tables for a reader outside the
// node's owner: Install replaces them under tablesMu.
func (n *Node) tables() (*flowtable.Table, *flowtable.LabelTable) {
	n.tablesMu.Lock()
	defer n.tablesMu.Unlock()
	return n.flows, n.labels
}

// HopEventKind classifies one runtime hop record.
type HopEventKind uint8

// Hop event kinds recorded by the dataplane and its drivers.
const (
	// HopIngress: a sampled flow's packet entered at its policy proxy.
	HopIngress HopEventKind = iota + 1
	// HopProcess: a middlebox ran one of the flow's chain functions —
	// the event the differential conformance test compares against the
	// static plan.
	HopProcess
	// HopEncap / HopDecap: IP-over-IP tunnel encapsulation events.
	HopEncap
	HopDecap
	// HopQueue: the packet waited for a busy middlebox.
	HopQueue
	// HopForward: the node forwarded the packet plain (chain complete or
	// permit traffic).
	HopForward
)

// String renders the event kind.
func (k HopEventKind) String() string {
	switch k {
	case HopIngress:
		return "ingress"
	case HopProcess:
		return "process"
	case HopEncap:
		return "encap"
	case HopDecap:
		return "decap"
	case HopQueue:
		return "queue"
	case HopForward:
		return "forward"
	default:
		return "hop(?)"
	}
}

// HopRecord is one step of a sampled flow's actual journey — the runtime
// counterpart of TraceHop.
type HopRecord struct {
	// Seq is the record's global sequence number (assigned at Record).
	Seq uint64
	// Flow is the flow's ORIGINAL 5-tuple (label-switched hops resolve
	// it from the label table, so rewritten headers never leak in).
	Flow netaddr.FiveTuple
	Node topo.NodeID
	// Func is the function executed (HopProcess only).
	Func  policy.FuncType
	Event HopEventKind
	// AtUS is the dataplane clock when the event happened (virtual time
	// in the simulator, microseconds since start in the live runtime).
	AtUS int64
}

// RuntimeTracer is a sampling ring buffer of per-packet hop records. The
// sampling decision is a pure function of the flow tuple, so every node
// — across goroutines, across substrates — agrees on which flows are
// traced without any coordination or packet marking. A full ring
// overwrites the oldest records (tracing is observability, not
// accounting).
type RuntimeTracer struct {
	oneIn uint64
	seed  uint64

	mu   sync.Mutex
	ring []HopRecord
	next uint64 // total records ever written
}

// NewRuntimeTracer creates a tracer holding up to capacity records
// (default 8192), sampling one in oneIn flows (1 traces every flow, 0
// disables tracing). seed perturbs which flows fall in the sample.
func NewRuntimeTracer(capacity int, oneIn uint64, seed uint64) *RuntimeTracer {
	if capacity <= 0 {
		capacity = 8192
	}
	return &RuntimeTracer{
		oneIn: oneIn,
		seed:  seed,
		ring:  make([]HopRecord, 0, capacity),
	}
}

// Sampled reports whether the flow is in the trace sample.
func (t *RuntimeTracer) Sampled(ft netaddr.FiveTuple) bool {
	if t == nil || t.oneIn == 0 {
		return false
	}
	if t.oneIn == 1 {
		return true
	}
	return ft.Hash(t.seed^0x7261636b6f627365)%t.oneIn == 0
}

// Record appends one hop record, assigning its sequence number.
func (t *RuntimeTracer) Record(rec HopRecord) {
	t.mu.Lock()
	rec.Seq = t.next
	t.next++
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, rec)
	} else {
		t.ring[rec.Seq%uint64(cap(t.ring))] = rec
	}
	t.mu.Unlock()
}

// Total returns how many records were ever written (≥ len(Records())).
func (t *RuntimeTracer) Total() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.next
}

// Records returns the retained records in sequence order.
func (t *RuntimeTracer) Records() []HopRecord {
	t.mu.Lock()
	out := append([]HopRecord(nil), t.ring...)
	t.mu.Unlock()
	// The ring wraps at cap: rotate so the oldest retained record leads.
	if len(out) == cap(out) && len(out) > 0 {
		start := int(t.next % uint64(cap(out)))
		out = append(out[start:], out[:start]...)
	}
	return out
}

// FlowRecords returns the retained records of one flow, in order.
func (t *RuntimeTracer) FlowRecords(ft netaddr.FiveTuple) []HopRecord {
	var out []HopRecord
	for _, r := range t.Records() {
		if r.Flow == ft {
			out = append(out, r)
		}
	}
	return out
}

// RuntimeTrace condenses a flow's HopProcess records into the same shape
// as the static plan (TraceFlow): the sequence of (middlebox, function)
// hops its packets actually traversed. With one packet the sequence is
// exactly the chain; with pipelined multi-packet flows, hops of different
// packets interleave in record order (Conforms accepts exactly those
// interleavings).
func (t *RuntimeTracer) RuntimeTrace(ft netaddr.FiveTuple) *Trace {
	tr := &Trace{Flow: ft}
	for _, r := range t.FlowRecords(ft) {
		if r.Event != HopProcess {
			continue
		}
		tr.Hops = append(tr.Hops, TraceHop{Node: r.Node, Func: r.Func})
	}
	return tr
}

// Conforms reports whether the runtime trace rt is what the given number
// of packets leave when each walks the plan tr in order: rt holds exactly
// that many copies of tr's (middlebox, function) hops, interleaved in any
// way that keeps every copy in plan order. Packets of one flow pipeline,
// so their records interleave. A chain names a function once, so a
// (middlebox, function) pair occurs once in tr and one counting pass
// decides it: a hop is admissible while fewer packets have reached it than
// its predecessor. Costs and candidate sets are plan-side detail and are
// not compared.
func (tr *Trace) Conforms(rt *Trace, packets int) bool {
	if len(rt.Hops) != packets*len(tr.Hops) {
		return false
	}
	type step struct {
		node topo.NodeID
		f    policy.FuncType
	}
	at := make(map[step]int, len(tr.Hops))
	for i, h := range tr.Hops {
		at[step{h.Node, h.Func}] = i
	}
	reached := make([]int, len(tr.Hops))
	for _, h := range rt.Hops {
		i, ok := at[step{h.Node, h.Func}]
		if !ok || reached[i] == packets || i > 0 && reached[i] == reached[i-1] {
			return false
		}
		reached[i]++
	}
	return true
}

// SamePath reports whether two one-packet traces visit the same
// middleboxes running the same functions in the same order.
func (tr *Trace) SamePath(other *Trace) bool { return tr.Conforms(other, 1) }

// SetTracer attaches a runtime tracer (nil detaches). Like SetMetrics,
// attach before the node's owner starts driving it.
func (n *Node) SetTracer(t *RuntimeTracer) { n.tracer = t }

// Tracer returns the node's attached tracer (nil if none).
func (n *Node) Tracer() *RuntimeTracer { return n.tracer }

// trace records one hop event if the node has a tracer and the flow is
// sampled.
func (n *Node) trace(ft netaddr.FiveTuple, ev HopEventKind, f policy.FuncType, now int64) {
	t := n.tracer
	if t == nil || !t.Sampled(ft) {
		return
	}
	t.Record(HopRecord{Flow: ft, Node: n.ID, Func: f, Event: ev, AtUS: now})
}
