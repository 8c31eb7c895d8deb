package enforce

import (
	"cmp"
	"fmt"
	"strings"

	"sdme/internal/netaddr"
	"sdme/internal/policy"
	"sdme/internal/route"
	"sdme/internal/topo"
)

// TraceHop is one step of a flow's enforcement path.
type TraceHop struct {
	// Node is the middlebox chosen for this step.
	Node topo.NodeID
	// Func is the network function it performs on the flow.
	Func policy.FuncType
	// Cost is the routing distance from the previous step.
	Cost float64
	// Candidates are the options the selector chose from (M_x^e).
	Candidates []topo.NodeID
}

// Trace describes the full journey of one flow under the current
// configuration: which policy matched, which middleboxes the flow's
// packets traverse and why, and the total path cost. It answers the
// operator question "where will this flow actually go?" without sending
// a packet.
type Trace struct {
	Flow netaddr.FiveTuple
	// Policy is the matched policy, nil if the flow is unmatched.
	Policy *policy.Policy
	// Proxy is the source subnet's policy proxy.
	Proxy topo.NodeID
	Hops  []TraceHop
	// TailCost is the distance from the last middlebox (or the proxy,
	// for permit traffic) to the destination's edge router.
	TailCost float64
}

// TotalCost sums the per-hop routing costs.
func (tr *Trace) TotalCost() float64 {
	total := tr.TailCost
	for _, h := range tr.Hops {
		total += h.Cost
	}
	return total
}

// String renders the trace for humans.
func (tr *Trace) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v", tr.Flow)
	if tr.Policy == nil {
		b.WriteString(" [no policy: forwarded plain]")
		return b.String()
	}
	fmt.Fprintf(&b, " [%s]", tr.Policy.Actions)
	for _, h := range tr.Hops {
		fmt.Fprintf(&b, " -> %s@node%d(+%.0f)", h.Func, h.Node, h.Cost)
	}
	fmt.Fprintf(&b, " -> dst(+%.0f) total %.0f", tr.TailCost, tr.TotalCost())
	return b.String()
}

// TraceFlow computes the enforcement path one flow's packets will take
// under the nodes' current strategy, weights and candidate sets. It uses
// exactly the dataplane's SelectNext, so the answer matches what the
// simulator and the live runtime do.
func TraceFlow(nodes map[topo.NodeID]*Node, dep *Deployment, ap *route.AllPairs, ft netaddr.FiveTuple) (*Trace, error) {
	tr := &Trace{Flow: ft}
	cut, err := walkChain(nodes, dep, ap, tr, func(from *Node, to topo.NodeID, e policy.FuncType, cost float64) {
		tr.Hops = append(tr.Hops, TraceHop{Node: to, Func: e, Cost: cost, Candidates: from.cfg.Candidates[e]})
	})
	if err := cmp.Or(err, cut); err != nil {
		return nil, err
	}
	return tr, nil
}

// walkChain follows tr.Flow along its enforcement path with the
// dataplane's own decisions: the source subnet's proxy classifies it, and
// each function of the matched chain is one SelectNext at the node before
// it. It sets tr's Policy, Proxy and TailCost; visit sees every hop: the
// node it leaves, the middlebox chosen, the function it runs there and
// the routing distance between the two. cut is SelectNext's error when a
// function has no usable provider: the walk stops there, TailCost 0. A
// proxy or middlebox missing from nodes is err.
func walkChain(nodes map[topo.NodeID]*Node, dep *Deployment, ap *route.AllPairs, tr *Trace,
	visit func(from *Node, to topo.NodeID, e policy.FuncType, cost float64)) (cut, err error) {
	ft := tr.Flow
	srcSub := dep.SubnetIndexOf(ft.Src)
	proxyID, ok := dep.ProxyFor(srcSub)
	if !ok {
		return nil, fmt.Errorf("enforce: no proxy for source subnet %d of %v", srcSub, ft)
	}
	cur, ok := nodes[proxyID]
	if !ok {
		return nil, fmt.Errorf("enforce: proxy node %v not materialized", proxyID)
	}
	tr.Policy, tr.Proxy, tr.TailCost = cur.classifier.Match(ft), proxyID, 0
	if tr.Policy != nil && !tr.Policy.Actions.IsPermit() {
		for _, e := range tr.Policy.Actions {
			next, err := cur.SelectNext(tr.Policy.ID, e, ft)
			if err != nil {
				return err, nil
			}
			visit(cur, next, e, ap.Dist(cur.ID, next))
			if cur, ok = nodes[next]; !ok {
				return nil, fmt.Errorf("enforce: middlebox node %v not materialized", next)
			}
		}
	}
	if dstEdge := dep.Graph.SubnetOwner(ft.Dst); dstEdge != topo.InvalidNode {
		tr.TailCost = ap.Dist(cur.ID, dstEdge)
	}
	return nil, nil
}
