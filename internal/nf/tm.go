package nf

import (
	"sort"
	"sync"

	"sdme/internal/netaddr"
	"sdme/internal/packet"
	"sdme/internal/policy"
)

// CountMinSketch is a fixed-memory frequency estimator. The traffic
// measurement function keeps exact per-flow counters only for flows it
// has room for; the sketch covers everything, so heavy-hitter queries
// stay accurate under memory pressure — the standard design for
// measurement middleboxes.
//
// A flow is hashed once. Row i's column is derived from the two halves
// h1, h2 of that hash as h1 + i·h2 (Kirsch and Mitzenmacher, "Less
// hashing, same performance"), which keeps the count-min error bound
// without a hash per row.
type CountMinSketch struct {
	width  int
	depth  int
	counts []uint64 // depth rows of width counters, row after row
}

// NewCountMinSketch creates a sketch with the given width (counters per
// row) and depth (independent rows).
func NewCountMinSketch(width, depth int) *CountMinSketch {
	if width < 1 {
		width = 1
	}
	if depth < 1 {
		depth = 1
	}
	return &CountMinSketch{width: width, depth: depth, counts: make([]uint64, width*depth)}
}

// flowHash hashes the 5-tuple a word at a time.
func flowHash(ft netaddr.FiveTuple) uint64 {
	ports := uint64(ft.SrcPort)<<24 | uint64(ft.DstPort)<<8 | uint64(ft.Proto)
	return netaddr.Mix64((uint64(ft.Src)<<32 | uint64(ft.Dst)) ^ netaddr.Mix64(ports))
}

// cell returns the index of row i's counter for a flow hashed to h1, h2.
// The column maps the 32-bit h1 + i·h2 onto [0, width) by a multiply and
// a shift, which needs no division.
func (s *CountMinSketch) cell(h1, h2 uint32, i int) int {
	col := uint64(h1+uint32(i)*h2) * uint64(s.width) >> 32
	return i*s.width + int(col)
}

// Add increments the estimate for the flow by delta.
func (s *CountMinSketch) Add(ft netaddr.FiveTuple, delta uint64) {
	h := flowHash(ft)
	h1, h2 := uint32(h), uint32(h>>32)
	for i := 0; i < s.depth; i++ {
		s.counts[s.cell(h1, h2, i)] += delta
	}
}

// Estimate returns the (over-approximating) count for the flow.
func (s *CountMinSketch) Estimate(ft netaddr.FiveTuple) uint64 {
	h := flowHash(ft)
	h1, h2 := uint32(h), uint32(h>>32)
	est := s.counts[s.cell(h1, h2, 0)]
	for i := 1; i < s.depth; i++ {
		est = min(est, s.counts[s.cell(h1, h2, i)])
	}
	return est
}

// FlowCount is one measured flow.
type FlowCount struct {
	Flow    netaddr.FiveTuple
	Packets uint64
	Bytes   uint64
}

// maxExactFlows bounds the exact counter table of a TrafficMeasure.
const maxExactFlows = 1 << 16

// TrafficMeasure is the paper's TM function: per-flow packet/byte
// accounting backed by exact counters up to a memory bound and a
// count-min sketch beyond it.
type TrafficMeasure struct {
	// mu makes Process safe under concurrent dataplane workers.
	mu sync.Mutex
	// The exact counters, by value, and each flow's place among them:
	// counting a new flow allocates no object, and the GC scans neither.
	flows     []FlowCount
	exact     map[netaddr.FiveTuple]int32
	sketch    *CountMinSketch
	processed int64
	totalPkts uint64
	totalByte uint64
}

var _ Function = (*TrafficMeasure)(nil)

// NewTrafficMeasure creates a measurement function.
func NewTrafficMeasure() *TrafficMeasure {
	return &TrafficMeasure{
		exact:  make(map[netaddr.FiveTuple]int32),
		sketch: NewCountMinSketch(4096, 4),
	}
}

// Type implements Function.
func (m *TrafficMeasure) Type() policy.FuncType { return policy.FuncTM }

// Process implements Function: measure and pass.
func (m *TrafficMeasure) Process(pkt *packet.Packet, _ int64) Verdict {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.processed++
	ft := pkt.FiveTuple()
	size := uint64(pkt.Size())
	m.totalPkts++
	m.totalByte += size
	m.sketch.Add(ft, 1)
	i, ok := m.exact[ft]
	if !ok {
		if len(m.exact) >= maxExactFlows {
			return VerdictPass // sketch still covers it
		}
		i = int32(len(m.flows))
		m.flows = append(m.flows, FlowCount{Flow: ft})
		m.exact[ft] = i
	}
	m.flows[i].Packets++
	m.flows[i].Bytes += size
	return VerdictPass
}

// Processed implements Function.
func (m *TrafficMeasure) Processed() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.processed
}

// Totals returns total packets and bytes seen.
func (m *TrafficMeasure) Totals() (packets, bytes uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.totalPkts, m.totalByte
}

// FlowPackets returns the exact packet count for a flow (0 if untracked);
// EstimatePackets answers from the sketch instead.
func (m *TrafficMeasure) FlowPackets(ft netaddr.FiveTuple) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if i, ok := m.exact[ft]; ok {
		return m.flows[i].Packets
	}
	return 0
}

// EstimatePackets returns the sketch estimate for a flow.
func (m *TrafficMeasure) EstimatePackets(ft netaddr.FiveTuple) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sketch.Estimate(ft)
}

// TopFlows returns the k heaviest exactly-tracked flows by packets,
// descending, ties broken by flow identity for determinism.
func (m *TrafficMeasure) TopFlows(k int) []FlowCount {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := append([]FlowCount(nil), m.flows...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Packets != out[j].Packets {
			return out[i].Packets > out[j].Packets
		}
		return out[i].Flow.String() < out[j].Flow.String()
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}
