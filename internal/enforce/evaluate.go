package enforce

import (
	"sort"

	"sdme/internal/netaddr"
	"sdme/internal/policy"
	"sdme/internal/route"
	"sdme/internal/topo"
)

// FlowDemand is the evaluator's input: one flow and its packet count.
type FlowDemand struct {
	Tuple   netaddr.FiveTuple
	Packets int64
}

// LoadReport aggregates the outcome of routing a flow set through the
// enforcement layer: per-middlebox loads in packets (the metric of
// Figures 4/5 and Table III) plus path-cost totals for latency analysis.
type LoadReport struct {
	// Loads maps each middlebox to the packets it processed.
	Loads map[topo.NodeID]int64
	// TotalPackets counts packets of all enforced flows.
	TotalPackets int64
	// PathCost accumulates Σ (packets × routing cost of the packet's
	// full path source→chain→destination); divide by TotalPackets for
	// the average policy-enforced path length.
	PathCost float64
	// Unenforced counts flows that matched no policy (forwarded plain).
	Unenforced int64
	// Dropped counts flows denied enforcement because a required
	// function had no provider.
	Dropped int64
}

// EvaluateFlows routes every flow through the enforcement decision logic
// — the same classification and SelectNext used by the packet dataplane —
// and accumulates loads analytically. This is valid precisely because the
// paper's per-flow hashing (§III-C) sends all packets of a flow along one
// middlebox chain, so per-packet simulation and per-flow accounting give
// identical loads. The packet-level simulator cross-checks this in tests.
func EvaluateFlows(nodes map[topo.NodeID]*Node, dep *Deployment, ap *route.AllPairs, flows []FlowDemand) (*LoadReport, error) {
	report := &LoadReport{Loads: make(map[topo.NodeID]int64)}
	var packets int64
	visit := func(_ *Node, to topo.NodeID, _ policy.FuncType, cost float64) {
		report.Loads[to] += packets
		report.PathCost += float64(packets) * cost
	}
	var tr Trace
	for i := range flows {
		packets, tr.Flow = flows[i].Packets, flows[i].Tuple
		cut, err := walkChain(nodes, dep, ap, &tr, visit)
		if err != nil {
			return nil, err
		}
		report.TotalPackets += packets
		switch {
		case tr.Policy == nil || tr.Policy.Actions.IsPermit():
			report.Unenforced++
		case cut != nil:
			report.Dropped++
		}
		report.PathCost += float64(packets) * tr.TailCost
	}
	return report, nil
}

// LoadsOf returns the loads of every provider of function f, ordered by
// provider node ID (zero for providers that saw no traffic).
func (r *LoadReport) LoadsOf(dep *Deployment, f policy.FuncType) []int64 {
	providers := topo.SortedIDs(dep.Providers(f))
	out := make([]int64, len(providers))
	for i, id := range providers {
		out[i] = r.Loads[id]
	}
	return out
}

// MaxLoad returns the largest per-middlebox load among providers of f.
func (r *LoadReport) MaxLoad(dep *Deployment, f policy.FuncType) int64 {
	var max int64
	for _, l := range r.LoadsOf(dep, f) {
		if l > max {
			max = l
		}
	}
	return max
}

// MinLoad returns the smallest per-middlebox load among providers of f.
func (r *LoadReport) MinLoad(dep *Deployment, f policy.FuncType) int64 {
	loads := r.LoadsOf(dep, f)
	if len(loads) == 0 {
		return 0
	}
	min := loads[0]
	for _, l := range loads[1:] {
		if l < min {
			min = l
		}
	}
	return min
}

// AvgPathCost returns the mean per-packet path cost.
func (r *LoadReport) AvgPathCost() float64 {
	if r.TotalPackets == 0 {
		return 0
	}
	return r.PathCost / float64(r.TotalPackets)
}

// SortedLoads returns all (middlebox, load) pairs sorted by descending
// load for display.
func (r *LoadReport) SortedLoads() []NodeLoad {
	out := make([]NodeLoad, 0, len(r.Loads))
	for id, l := range r.Loads {
		out = append(out, NodeLoad{Node: id, Load: l})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Load != out[j].Load {
			return out[i].Load > out[j].Load
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// NodeLoad pairs a middlebox with its load.
type NodeLoad struct {
	Node topo.NodeID
	Load int64
}
