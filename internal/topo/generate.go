package topo

import (
	"fmt"
	"math"
	"math/rand"

	"sdme/internal/netaddr"
)

// Address plan used by the generators:
//
//	10.<i>.0.0/16      stub subnet behind edge router i (i starts at 1)
//	10.<i>.0.1         the edge router's subnet-facing address
//	10.<i>.0.2         the policy proxy of the subnet
//	10.<i>.1.<h>       hosts
//	172.16.<hi>.<lo>   router loopback addresses
//	172.31.<hi>.<lo>   middlebox addresses
//
// Middlebox and proxy addresses are globally routable inside the model so
// that IP-over-IP tunnels can target them directly, as §III-B requires.

func routerAddr(seq int) netaddr.Addr {
	return netaddr.AddrFrom4(172, 16, byte(seq/250), byte(seq%250+1))
}

func middleboxAddr(seq int) netaddr.Addr {
	return netaddr.AddrFrom4(172, 31, byte(seq/250), byte(seq%250+1))
}

func subnetBase(i int) netaddr.Addr {
	return netaddr.AddrFrom4(10, 0, 0, 0) + netaddr.Addr(i<<16)
}

// SubnetPrefix returns the /16 stub prefix of subnet index i (1-based).
// For i > 245 the prefix rolls into the 11.x space; every index still maps
// to a unique, non-overlapping /16.
func SubnetPrefix(i int) netaddr.Prefix {
	return netaddr.PrefixFrom(subnetBase(i), 16)
}

func subnetPrefix(i int) netaddr.Prefix { return SubnetPrefix(i) }

// SubnetIndexOf recovers the 1-based subnet index an address belongs to,
// or 0 when the address is outside the generated stub-subnet plan.
func SubnetIndexOf(a netaddr.Addr) int {
	i := int(a-subnetBase(0)) >> 16
	if i < 1 || !SubnetPrefix(i).Contains(a) {
		return 0
	}
	return i
}

func subnetRouterAddr(i int) netaddr.Addr { return subnetBase(i) + 1 }
func subnetProxyAddr(i int) netaddr.Addr  { return subnetBase(i) + 2 }

// HostAddr returns the address of host h (1-based) in subnet i (1-based).
func HostAddr(i, h int) netaddr.Addr {
	return subnetBase(i) + netaddr.Addr(256+h)
}

// CampusConfig parameterizes the campus generator. The zero value is
// replaced by the paper's §IV-A settings: 2 gateways, 16 core routers each
// connected to both gateways, and 10 edge routers.
type CampusConfig struct {
	Gateways    int
	CoreRouters int
	EdgeRouters int
	// WithProxies attaches one policy proxy per edge-router subnet.
	WithProxies bool
	// OffPathProxies deploys the proxies off-path (§III-A) instead of
	// in-path; only meaningful with WithProxies.
	OffPathProxies bool
}

// The campus wiring the paper leaves open (DESIGN §2): a ring over the
// core routers gives them core-to-core path diversity (the gateways alone
// would make them a 2-hub star), and each edge router connects to
// edgeUplinks core routers, for the redundancy typical of campus designs.
// linkDelayUS is the simulator's propagation delay on every router-router
// link of both generators.
const (
	edgeUplinks = 2
	linkDelayUS = 100
)

func (c *CampusConfig) fill() {
	if c.Gateways == 0 {
		c.Gateways = 2
	}
	if c.CoreRouters == 0 {
		c.CoreRouters = 16
	}
	if c.EdgeRouters == 0 {
		c.EdgeRouters = 10
	}
}

// Campus builds the campus topology of §IV-A: gateways at the top, core
// routers each wired to every gateway, and edge routers multihomed to the
// core. Edge router i fronts stub subnet 10.i.0.0/16. The rng drives only
// the edge-to-core attachment choice.
func Campus(cfg CampusConfig, rng *rand.Rand) *Graph {
	cfg.fill()
	g := NewGraph()
	seq := 0
	newRouter := func(name string, kind Kind, x, y float64) NodeID {
		seq++
		return g.AddNode(Node{
			Name: name, Kind: kind, X: x, Y: y,
			Addr: routerAddr(seq), Attach: InvalidNode,
		})
	}

	gws := make([]NodeID, cfg.Gateways)
	for i := range gws {
		gws[i] = newRouter(fmt.Sprintf("gw%d", i+1), KindGateway, float64(20+60*i), 90)
	}
	cores := make([]NodeID, cfg.CoreRouters)
	for i := range cores {
		x := 100 * float64(i+1) / float64(cfg.CoreRouters+1)
		cores[i] = newRouter(fmt.Sprintf("core%d", i+1), KindCoreRouter, x, 55)
		for _, gw := range gws {
			g.AddLink(Link{A: cores[i], B: gw, DelayUS: linkDelayUS})
		}
	}
	if cfg.CoreRouters > 2 {
		for i := range cores {
			g.AddLink(Link{A: cores[i], B: cores[(i+1)%len(cores)], DelayUS: linkDelayUS})
		}
	}
	for i := 0; i < cfg.EdgeRouters; i++ {
		x := 100 * float64(i+1) / float64(cfg.EdgeRouters+1)
		id := newRouter(fmt.Sprintf("edge%d", i+1), KindEdgeRouter, x, 20)
		n := g.nodes[id]
		n.Subnet = subnetPrefix(i + 1)
		g.nodes[id] = n
		g.byAddr[subnetRouterAddr(i+1)] = id
		for _, c := range pickDistinct(rng, len(cores), edgeUplinks) {
			g.AddLink(Link{A: id, B: cores[c], DelayUS: linkDelayUS})
		}
		if cfg.WithProxies {
			attachProxy(g, id, i+1, cfg.OffPathProxies)
		}
	}
	return g
}

// AttachProxy adds an in-path policy proxy in front of edge router edge,
// serving subnet index subnetIdx (1-based), and returns its node ID.
func AttachProxy(g *Graph, edge NodeID, subnetIdx int) NodeID {
	return attachProxy(g, edge, subnetIdx, false)
}

// AttachProxyOffPath adds an off-path policy proxy hanging off edge
// router edge (§III-A: the router is configured with a loopback that
// forwards subnet traffic to the proxy and back).
func AttachProxyOffPath(g *Graph, edge NodeID, subnetIdx int) NodeID {
	return attachProxy(g, edge, subnetIdx, true)
}

func attachProxy(g *Graph, edge NodeID, subnetIdx int, offPath bool) NodeID {
	e := g.Node(edge)
	id := g.AddNode(Node{
		Name: fmt.Sprintf("proxy-%s", e.Name), Kind: KindProxy,
		X: e.X, Y: e.Y - 5,
		Addr:    subnetProxyAddr(subnetIdx),
		Subnet:  e.Subnet,
		Attach:  edge,
		OffPath: offPath,
	})
	g.AddLink(Link{A: id, B: edge, DelayUS: 20})
	return id
}

// AttachMiddlebox adds a middlebox node connected to the given router and
// returns its node ID. seq must be unique per middlebox (it derives the
// address).
func AttachMiddlebox(g *Graph, router NodeID, seq int, name string) NodeID {
	r := g.Node(router)
	id := g.AddNode(Node{
		Name: name, Kind: KindMiddlebox,
		X: r.X + 2, Y: r.Y + 2,
		Addr:   middleboxAddr(seq),
		Attach: router,
	})
	g.AddLink(Link{A: id, B: router, DelayUS: 20})
	return id
}

// AttachHost adds a host in subnet subnetIdx behind the given edge router.
// h is the 1-based host index within the subnet.
func AttachHost(g *Graph, edge NodeID, subnetIdx, h int) NodeID {
	e := g.Node(edge)
	id := g.AddNode(Node{
		Name: fmt.Sprintf("h%d.%d", subnetIdx, h), Kind: KindHost,
		X: e.X, Y: e.Y - 10,
		Addr:   HostAddr(subnetIdx, h),
		Attach: edge,
	})
	g.AddLink(Link{A: id, B: edge, DelayUS: 20})
	return id
}

// WaxmanConfig parameterizes the Waxman generator. The zero value is
// replaced by the paper's settings: 400 edge routers and 25 core routers.
type WaxmanConfig struct {
	EdgeRouters int
	CoreRouters int
	WithProxies bool
}

// The core mesh of §IV-A: core routers placed in a waxmanRegion x
// waxmanRegion square, waxmanDegree core-to-core links each. Two routers at
// Euclidean distance d connect with probability
// waxmanAlpha*exp(-d/(waxmanBeta*L)), where L is the maximum possible
// distance; the two values are common in the literature, and the degree
// constraint dominates the final shape.
const (
	waxmanRegion float64 = 100
	waxmanDegree         = 4
	waxmanAlpha          = 0.4
	waxmanBeta           = 0.14
)

func (c *WaxmanConfig) fill() {
	if c.EdgeRouters == 0 {
		c.EdgeRouters = 400
	}
	if c.CoreRouters == 0 {
		c.CoreRouters = 25
	}
}

// Waxman builds the random topology of §IV-A. Core routers are placed
// uniformly at random in the waxmanRegion square and interconnected by a
// degree-constrained Waxman process: a random spanning tree weighted by
// the Waxman probability guarantees connectivity, then additional links
// are sampled (still Waxman-weighted) until every core router has
// waxmanDegree core-to-core links or no legal pair remains. Edge routers are
// split evenly across core routers.
func Waxman(cfg WaxmanConfig, rng *rand.Rand) *Graph {
	cfg.fill()
	g := NewGraph()
	seq := 0
	cores := make([]NodeID, cfg.CoreRouters)
	for i := range cores {
		seq++
		cores[i] = g.AddNode(Node{
			Name: fmt.Sprintf("core%d", i+1), Kind: KindCoreRouter,
			X: rng.Float64() * waxmanRegion, Y: rng.Float64() * waxmanRegion,
			Addr: routerAddr(seq), Attach: InvalidNode,
		})
	}
	connectWaxman(g, cores, rng)

	perCore := cfg.EdgeRouters / cfg.CoreRouters
	extra := cfg.EdgeRouters % cfg.CoreRouters
	idx := 0
	for ci, core := range cores {
		n := perCore
		if ci < extra {
			n++
		}
		for j := 0; j < n; j++ {
			idx++
			seq++
			c := g.Node(core)
			id := g.AddNode(Node{
				Name: fmt.Sprintf("edge%d", idx), Kind: KindEdgeRouter,
				X: c.X + rng.Float64()*4 - 2, Y: c.Y + rng.Float64()*4 - 2,
				Addr: routerAddr(seq), Attach: InvalidNode,
			})
			nn := g.nodes[id]
			nn.Subnet = subnetPrefix(idx)
			g.nodes[id] = nn
			g.byAddr[subnetRouterAddr(idx)] = id
			g.AddLink(Link{A: id, B: core, DelayUS: linkDelayUS})
			if cfg.WithProxies {
				attachProxy(g, id, idx, false)
			}
		}
	}
	return g
}

// connectWaxman wires the core mesh: spanning tree first (connectivity),
// then Waxman-weighted extra links up to the degree target.
func connectWaxman(g *Graph, cores []NodeID, rng *rand.Rand) {
	n := len(cores)
	if n < 2 {
		return
	}
	maxDist := waxmanRegion * math.Sqrt2
	prob := func(a, b NodeID) float64 {
		na, nb := g.Node(a), g.Node(b)
		d := math.Hypot(na.X-nb.X, na.Y-nb.Y)
		return waxmanAlpha * math.Exp(-d/(waxmanBeta*maxDist))
	}

	// Random spanning tree: attach each new node to an already-connected
	// node chosen with probability proportional to the Waxman weight.
	order := rng.Perm(n)
	connected := []NodeID{cores[order[0]]}
	for _, oi := range order[1:] {
		v := cores[oi]
		u := weightedPick(rng, connected, func(u NodeID) float64 { return prob(u, v) })
		g.AddLink(Link{A: u, B: v, DelayUS: linkDelayUS})
		connected = append(connected, v)
	}

	// Fill to the degree target. Candidate pairs are all non-adjacent
	// pairs where both endpoints are under the target; sample them with
	// Waxman weights until exhausted.
	deg := func(id NodeID) int {
		d := 0
		for _, adj := range g.Neighbors(id) {
			if g.Node(adj.Neighbor).Kind == KindCoreRouter {
				d++
			}
		}
		return d
	}
	for {
		type pair struct{ a, b NodeID }
		var cands []pair
		var weights []float64
		for i := 0; i < n; i++ {
			if deg(cores[i]) >= waxmanDegree {
				continue
			}
			for j := i + 1; j < n; j++ {
				if deg(cores[j]) >= waxmanDegree || g.HasLink(cores[i], cores[j]) {
					continue
				}
				cands = append(cands, pair{cores[i], cores[j]})
				weights = append(weights, prob(cores[i], cores[j]))
			}
		}
		if len(cands) == 0 {
			return
		}
		k := weightedIndex(rng, weights)
		g.AddLink(Link{A: cands[k].a, B: cands[k].b, DelayUS: linkDelayUS})
	}
}

// pickDistinct returns k distinct values in [0,n), order random.
func pickDistinct(rng *rand.Rand, n, k int) []int {
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	return rng.Perm(n)[:k]
}

// weightedPick selects one of items with probability proportional to
// weight(item); uniform fallback if all weights are zero.
func weightedPick(rng *rand.Rand, items []NodeID, weight func(NodeID) float64) NodeID {
	weights := make([]float64, len(items))
	for i, it := range items {
		weights[i] = weight(it)
	}
	return items[weightedIndex(rng, weights)]
}

func weightedIndex(rng *rand.Rand, weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		return rng.Intn(len(weights))
	}
	r := rng.Float64() * total
	for i, w := range weights {
		r -= w
		if r <= 0 {
			return i
		}
	}
	return len(weights) - 1
}
