// Package controller implements the paper's centralized middlebox
// controller (§III-A): it knows the topology, the middlebox placement and
// the network-wide policies; it computes each node's closest-middlebox
// assignments m_x^e and candidate sets M_x^e (§III-B/C) with shortest
// paths; it distributes each node's relevant policy subset P_x; it
// aggregates the proxies' traffic measurements; and it solves the
// load-balancing linear programs (Eq. 1 and Eq. 2) whose solution becomes
// the nodes' probabilistic forwarding weights.
//
// Unlike an SDN controller it never touches the routers and is not on any
// per-flow path: everything it produces is pushed to proxies and
// middleboxes as configuration.
package controller

import (
	"fmt"
	"math/rand"

	"sdme/internal/enforce"
	"sdme/internal/policy"
	"sdme/internal/route"
	"sdme/internal/topo"
)

// DefaultK returns the paper's candidate-set sizes (§IV-A): 4 for FW and
// IDS (7 instances each), 2 for WP and TM (4 instances each).
func DefaultK() map[policy.FuncType]int {
	return map[policy.FuncType]int{
		policy.FuncFW:  4,
		policy.FuncIDS: 4,
		policy.FuncWP:  2,
		policy.FuncTM:  2,
	}
}

// DefaultCounts returns the paper's middlebox population (§IV-A).
func DefaultCounts() map[policy.FuncType]int {
	return map[policy.FuncType]int{
		policy.FuncFW:  7,
		policy.FuncIDS: 7,
		policy.FuncWP:  4,
		policy.FuncTM:  4,
	}
}

// Options configures a controller.
type Options struct {
	// Strategy is installed on every node (HotPotato, Random or
	// LoadBalanced).
	Strategy enforce.Strategy
	// K sets |M_x^e| per function; functions absent from the map get 1.
	K map[policy.FuncType]int
	// Capacity is C(x) per middlebox; absent entries get 1. With uniform
	// capacities, minimizing λ minimizes the maximum load, which is what
	// the paper's evaluation plots.
	Capacity map[topo.NodeID]float64
	// CapLambda adds the paper's λ <= 1 constraint. If that makes the
	// program infeasible the controller re-solves without it and reports
	// the (overload) λ.
	CapLambda bool
	// LabelSwitching enables §III-E on every node.
	LabelSwitching bool
	// FlowTTL/LabelTTL are soft-state lifetimes (0 = no expiry).
	FlowTTL, LabelTTL int64
	// HashSeed seeds flow-hash selection.
	HashSeed uint64
	// FunctionFactory overrides middlebox function construction; nil
	// uses the built-in implementations (nf.New). Required when policies
	// reference function types registered beyond the built-in four.
	FunctionFactory enforce.FunctionFactory
	// Verify makes the pipeline statically verify every plan it compiles
	// (internal/verify), full and scoped, and refuse to diff or build one
	// with violations. The failed check returns a *verify.Error listing
	// them.
	Verify bool
}

// Controller is the central management server.
type Controller struct {
	dep      *enforce.Deployment
	ap       *route.AllPairs
	policies *policy.Table
	opts     Options
	// candidates caches M_x^e for every proxy/middlebox x.
	candidates map[topo.NodeID]map[policy.FuncType][]topo.NodeID
	// failed marks middleboxes currently considered down.
	failed map[topo.NodeID]bool

	// Observability attachments (observe.go); nil unless SetMetrics was
	// called.
	metrics *metricsRegistry
	clock   clockFunc

	// journal is the optional write-ahead log (journal.go); nil unless
	// SetJournal was called. restored is the plan RestoreFromJournal
	// rebuilt, which the controller's pipelines start from.
	journal  *Journal
	restored *Plan
}

// New creates a controller over a completed deployment (all middleboxes
// placed). The AllPairs calculator must be built over the same graph with
// router-only transit.
func New(dep *enforce.Deployment, ap *route.AllPairs, policies *policy.Table, opts Options) *Controller {
	if opts.Strategy == 0 {
		opts.Strategy = enforce.HotPotato
	}
	return &Controller{dep: dep, ap: ap, policies: policies, opts: opts}
}

// kFor returns |M_x^e| for function e.
func (c *Controller) kFor(e policy.FuncType) int {
	if k, ok := c.opts.K[e]; ok {
		return k
	}
	return 1
}

// capacityOf returns C(x).
func (c *Controller) capacityOf(x topo.NodeID) float64 {
	if v, ok := c.opts.Capacity[x]; ok && v > 0 {
		return v
	}
	return 1
}

// computeAssignments fills the M_x^e cache for every proxy and middlebox:
// the k closest providers of each function the node does not itself
// implement (Π_x), via shortest-path distance — the paper's Dijkstra
// assignment (§III-B/C).
func (c *Controller) computeAssignments() {
	c.candidates = make(map[topo.NodeID]map[policy.FuncType][]topo.NodeID)
	funcs := c.dep.Functions()
	assign := func(x topo.NodeID, implemented map[policy.FuncType]bool) {
		m := make(map[policy.FuncType][]topo.NodeID, len(funcs))
		for _, e := range funcs {
			if implemented[e] {
				continue
			}
			m[e] = c.ap.KClosest(x, c.liveProviders(e), c.kFor(e))
		}
		c.candidates[x] = m
	}
	for _, p := range c.dep.ProxyNodes {
		assign(p, nil)
	}
	for _, mb := range c.dep.MBNodes {
		impl := make(map[policy.FuncType]bool)
		for _, f := range c.dep.FuncsOf(mb) {
			impl[f] = true
		}
		assign(mb, impl)
	}
}

// CandidatesOf returns M_x^e for a node (computing assignments on first
// use). The closest provider — the hot-potato target m_x^e — is index 0.
func (c *Controller) CandidatesOf(x topo.NodeID) map[policy.FuncType][]topo.NodeID {
	if c.candidates == nil {
		c.computeAssignments()
	}
	return c.candidates[x]
}

// Measurements aggregates per-(policy, src, dst) packet volumes — the
// T_{s,d,p} of §III-C, from which every other T derives.
type Measurements map[enforce.MeasKey]int64

// Collect sums the measurement counters of all proxies.
func Collect(nodes map[topo.NodeID]*enforce.Node) Measurements {
	out := make(Measurements)
	for _, n := range nodes {
		for k, v := range n.Measurements() {
			out[k] += v
		}
	}
	return out
}

// MeasurementsFromFlows computes what the proxies would measure for a
// flow set, by classifying each flow against the global policy table.
// The figure-scale experiments use this instead of running packets.
func MeasurementsFromFlows(dep *enforce.Deployment, tbl *policy.Table, flows []enforce.FlowDemand) Measurements {
	out := make(Measurements)
	for _, f := range flows {
		p := tbl.Match(f.Tuple)
		if p == nil || p.Actions.IsPermit() {
			continue
		}
		out[enforce.MeasKey{
			PolicyID:  p.ID,
			SrcSubnet: dep.SubnetIndexOf(f.Tuple.Src),
			DstSubnet: dep.SubnetIndexOf(f.Tuple.Dst),
		}] += f.Packets
	}
	return out
}

// ApplyDeltas is the in-process rollout: it applies a plan update's
// per-node deltas, which Node.Install's rule turns into purging only what
// they change (the wire rollout is Pipeline.Rollout). The caller must own
// the nodes.
func ApplyDeltas(nodes map[topo.NodeID]*enforce.Node, deltas map[topo.NodeID]enforce.ConfigDelta) error {
	for id, d := range deltas {
		n, ok := nodes[id]
		if !ok {
			continue
		}
		if err := n.ApplyDelta(d); err != nil {
			return fmt.Errorf("controller: apply delta on node %v: %w", id, err)
		}
	}
	return nil
}

// RandomDeployment is a convenience that builds the paper's §IV-A
// deployment on a graph: the default middlebox population placed on
// random core routers.
func RandomDeployment(g *topo.Graph, rng *rand.Rand) (*enforce.Deployment, error) {
	dep, err := enforce.NewDeployment(g)
	if err != nil {
		return nil, err
	}
	dep.PlaceRandom(DefaultCounts(), rng)
	return dep, nil
}
