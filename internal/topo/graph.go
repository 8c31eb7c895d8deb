// Package topo models the physical network underneath the policy
// enforcement system: routers, gateways, middlebox and proxy attachment
// points, and the links between them. It also provides the two topology
// generators used in the paper's evaluation (§IV-A): a real-world campus
// network and a random Waxman graph.
//
// The graph is policy-oblivious on purpose — nodes and links know nothing
// about middlebox functions. Higher layers (internal/route, internal/ospf,
// internal/controller) compute paths and assignments over it.
package topo

import (
	"fmt"
	"sort"

	"sdme/internal/netaddr"
)

// NodeID identifies a node in a Graph. IDs are dense and start at 0, so
// they can index slices directly.
type NodeID int

// InvalidNode is returned by lookups that find nothing.
const InvalidNode NodeID = -1

// Kind classifies the role of a node in the network.
type Kind int

// Node kinds. Core and edge routers run the routing protocol; gateways are
// edge routers toward the Internet; middleboxes and proxies are the
// software-defined devices of the paper, attached to routers; hosts sit in
// stub networks behind edge routers.
const (
	KindCoreRouter Kind = iota + 1
	KindEdgeRouter
	KindGateway
	KindMiddlebox
	KindProxy
	KindHost
)

// String renders the kind for debugging and tooling output.
func (k Kind) String() string {
	switch k {
	case KindCoreRouter:
		return "core"
	case KindEdgeRouter:
		return "edge"
	case KindGateway:
		return "gateway"
	case KindMiddlebox:
		return "middlebox"
	case KindProxy:
		return "proxy"
	case KindHost:
		return "host"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// IsRouter reports whether the node participates in routing (forwards
// transit packets): core routers, edge routers and gateways do.
func (k Kind) IsRouter() bool {
	return k == KindCoreRouter || k == KindEdgeRouter || k == KindGateway
}

// Node is a vertex of the network graph.
type Node struct {
	ID   NodeID
	Name string
	Kind Kind
	// X, Y are planar coordinates; the Waxman generator places routers in
	// a 100x100 region and uses the Euclidean distance for its link
	// probability. Coordinates of the campus topology are synthetic.
	X, Y float64
	// Addr is the node's own address (loopback/management address for
	// routers, the tunnel endpoint address for middleboxes and proxies).
	Addr netaddr.Addr
	// Subnet is the stub network behind an edge router, or the zero value
	// for nodes that front no subnet.
	Subnet netaddr.Prefix
	// Attach is the router a middlebox/proxy/host connects to, or
	// InvalidNode for routers themselves.
	Attach NodeID
	// OffPath marks a policy proxy deployed off the forwarding path
	// (§III-A of the paper): the edge router loops subnet traffic out to
	// the proxy and back before regular forwarding, instead of the proxy
	// sitting in line. Functionally identical; it costs one extra
	// router↔proxy round trip per outbound packet, which the simulator
	// accounts.
	OffPath bool
}

// Link is an undirected edge between two nodes.
type Link struct {
	A, B NodeID
	// Cost is the routing metric (OSPF cost). The evaluation uses 1 per
	// hop so that shortest paths are hop-count paths.
	Cost float64
	// DelayUS is the propagation delay in microseconds, used by the
	// discrete-event simulator.
	DelayUS int64
	// BandwidthBPS is the link capacity in bits per second (0 = infinite).
	BandwidthBPS int64
	// MTU is the maximum transmission unit in bytes. The label-switching
	// enhancement of the paper (§III-E) exists precisely because
	// IP-over-IP encapsulation can push packets past this limit.
	MTU int
}

// DefaultMTU is used when a link does not specify one.
const DefaultMTU = 1500

// Graph is the network topology. Construct with NewGraph, then AddNode and
// AddLink. A Graph is not safe for concurrent mutation; once built it is
// read-only and safe to share.
type Graph struct {
	nodes []Node
	links []Link
	// adjacency: adj[id] lists (neighbor, link index) pairs.
	adj [][]Adjacency
	// byAddr finds a node by its address.
	byAddr map[netaddr.Addr]NodeID
}

// Adjacency is one incident edge of a node.
type Adjacency struct {
	Neighbor NodeID
	LinkIdx  int
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{byAddr: make(map[netaddr.Addr]NodeID)}
}

// AddNode inserts a node and returns its assigned ID. The ID field of the
// argument is ignored and overwritten.
func (g *Graph) AddNode(n Node) NodeID {
	n.ID = NodeID(len(g.nodes))
	if n.Attach == 0 && !n.Kind.IsRouter() {
		// Zero is a valid NodeID; require explicit attachment via
		// AttachNode for non-routers created without one.
	}
	g.nodes = append(g.nodes, n)
	g.adj = append(g.adj, nil)
	if !n.Addr.IsZero() {
		g.byAddr[n.Addr] = n.ID
	}
	return n.ID
}

// AddLink inserts an undirected link. Cost defaults to 1 and MTU to
// DefaultMTU when left zero. It returns the link index.
func (g *Graph) AddLink(l Link) int {
	if l.Cost == 0 {
		l.Cost = 1
	}
	if l.MTU == 0 {
		l.MTU = DefaultMTU
	}
	if !g.valid(l.A) || !g.valid(l.B) {
		panic(fmt.Sprintf("topo: AddLink(%d,%d): unknown node", l.A, l.B))
	}
	if l.A == l.B {
		panic(fmt.Sprintf("topo: AddLink: self-loop at node %d", l.A))
	}
	idx := len(g.links)
	g.links = append(g.links, l)
	g.adj[l.A] = append(g.adj[l.A], Adjacency{Neighbor: l.B, LinkIdx: idx})
	g.adj[l.B] = append(g.adj[l.B], Adjacency{Neighbor: l.A, LinkIdx: idx})
	return idx
}

func (g *Graph) valid(id NodeID) bool {
	return id >= 0 && int(id) < len(g.nodes)
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumLinks returns the number of links.
func (g *Graph) NumLinks() int { return len(g.links) }

// Node returns the node with the given ID. It panics on out-of-range IDs,
// which always indicate a programming error in a caller.
func (g *Graph) Node(id NodeID) Node {
	if !g.valid(id) {
		panic(fmt.Sprintf("topo: Node(%d): out of range [0,%d)", id, len(g.nodes)))
	}
	return g.nodes[id]
}

// Link returns the link at the given index.
func (g *Graph) Link(i int) Link {
	if i < 0 || i >= len(g.links) {
		panic(fmt.Sprintf("topo: Link(%d): out of range [0,%d)", i, len(g.links)))
	}
	return g.links[i]
}

// Neighbors returns the adjacency list of a node. The returned slice is
// owned by the graph and must not be modified.
func (g *Graph) Neighbors(id NodeID) []Adjacency {
	if !g.valid(id) {
		panic(fmt.Sprintf("topo: Neighbors(%d): out of range", id))
	}
	return g.adj[id]
}

// Degree returns the number of links incident to a node.
func (g *Graph) Degree(id NodeID) int { return len(g.Neighbors(id)) }

// NodeByAddr finds the node owning an address, or InvalidNode.
func (g *Graph) NodeByAddr(a netaddr.Addr) NodeID {
	if id, ok := g.byAddr[a]; ok {
		return id
	}
	return InvalidNode
}

// NodesOfKind returns the IDs of all nodes of the given kind, in ID order.
func (g *Graph) NodesOfKind(k Kind) []NodeID {
	var out []NodeID
	for _, n := range g.nodes {
		if n.Kind == k {
			out = append(out, n.ID)
		}
	}
	return out
}

// Routers returns the IDs of all routing-capable nodes in ID order.
func (g *Graph) Routers() []NodeID {
	var out []NodeID
	for _, n := range g.nodes {
		if n.Kind.IsRouter() {
			out = append(out, n.ID)
		}
	}
	return out
}

// SubnetOwner returns the edge router whose stub subnet contains addr, or
// InvalidNode. Longest prefix wins when subnets nest.
func (g *Graph) SubnetOwner(addr netaddr.Addr) NodeID {
	best, bestBits := InvalidNode, -1
	for _, n := range g.nodes {
		if n.Subnet.Bits() == 0 && n.Subnet.Addr().IsZero() {
			continue
		}
		if n.Subnet.Contains(addr) && n.Subnet.Bits() > bestBits {
			best, bestBits = n.ID, n.Subnet.Bits()
		}
	}
	return best
}

// AttachedOfKind returns nodes of kind k attached (directly) to router r,
// in ID order.
func (g *Graph) AttachedOfKind(r NodeID, k Kind) []NodeID {
	var out []NodeID
	for _, n := range g.nodes {
		if n.Kind == k && n.Attach == r {
			out = append(out, n.ID)
		}
	}
	return out
}

// Connected reports whether the subgraph induced by routing-capable nodes
// is connected. Generators use it to validate their output.
func (g *Graph) Connected() bool {
	routers := g.Routers()
	if len(routers) == 0 {
		return true
	}
	seen := make(map[NodeID]bool, len(routers))
	stack := []NodeID{routers[0]}
	seen[routers[0]] = true
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, adj := range g.adj[cur] {
			n := g.nodes[adj.Neighbor]
			if !n.Kind.IsRouter() || seen[n.ID] {
				continue
			}
			seen[n.ID] = true
			stack = append(stack, n.ID)
		}
	}
	return len(seen) == len(routers)
}

// HasLink reports whether an undirected link between a and b exists.
func (g *Graph) HasLink(a, b NodeID) bool {
	for _, adj := range g.Neighbors(a) {
		if adj.Neighbor == b {
			return true
		}
	}
	return false
}

// SortedIDs returns ids sorted ascending; a convenience for deterministic
// iteration in callers and tests.
func SortedIDs(ids []NodeID) []NodeID {
	out := make([]NodeID, len(ids))
	copy(out, ids)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Stats summarizes a graph for logging and the topology CLI.
type Stats struct {
	Nodes, Links                  int
	Core, Edge, Gateways          int
	Middleboxes, Proxies          int
	MinRouterDegree, MaxRouterDeg int
	ConnectedRouters              bool
}

// Summarize computes Stats for the graph.
func (g *Graph) Summarize() Stats {
	s := Stats{
		Nodes:            len(g.nodes),
		Links:            len(g.links),
		MinRouterDegree:  -1,
		ConnectedRouters: g.Connected(),
	}
	for _, n := range g.nodes {
		switch n.Kind {
		case KindCoreRouter:
			s.Core++
		case KindEdgeRouter:
			s.Edge++
		case KindGateway:
			s.Gateways++
		case KindMiddlebox:
			s.Middleboxes++
		case KindProxy:
			s.Proxies++
		}
		if n.Kind.IsRouter() {
			d := len(g.adj[n.ID])
			if s.MinRouterDegree < 0 || d < s.MinRouterDegree {
				s.MinRouterDegree = d
			}
			if d > s.MaxRouterDeg {
				s.MaxRouterDeg = d
			}
		}
	}
	return s
}
