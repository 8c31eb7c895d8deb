// Package sdme is a from-scratch reproduction of "Dependable Policy
// Enforcement in Traditional Non-SDN Networks" (Odegbile, Chen, Wang —
// ICDCS 2019): automated middlebox policy enforcement on networks whose
// routers run plain OSPF and know nothing about policies.
//
// The building blocks live under internal/ (topology, OSPF, packets,
// policies, flow tables, network functions, the LP solver, the
// enforcement dataplane, the controller, the discrete-event simulator and
// a live UDP runtime); this package is the public facade that assembles
// them:
//
//	sys, _ := sdme.NewCampus(1)
//	sys.MustAddPolicy("*", "10.2.0.0/16", "*", "80", "FW,IDS")
//	_ = sys.Deploy(sdme.LoadBalanced)
//	demands := []sdme.FlowDemand{{Tuple: ..., Packets: 1000}}
//	lambda, _ := sys.Balance(demands)
//	report, _ := sys.Evaluate(demands)
//
// See examples/ for complete programs and DESIGN.md for the system
// inventory and experiment index.
package sdme

import (
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/netaddr"
	"sdme/internal/ospf"
	"sdme/internal/policy"
	"sdme/internal/route"
	"sdme/internal/sim"
	"sdme/internal/topo"
)

// Re-exported core types. Aliases keep the internal packages as the
// single source of truth while making the API usable from outside.
type (
	// Strategy selects hot-potato, random or load-balanced enforcement.
	Strategy = enforce.Strategy
	// FuncType identifies a network function (FW, IDS, WP, TM, ...).
	FuncType = policy.FuncType
	// FlowDemand is a flow plus its packet count, the evaluator input.
	FlowDemand = enforce.FlowDemand
	// LoadReport aggregates per-middlebox loads for a flow population.
	LoadReport = enforce.LoadReport
	// FiveTuple identifies a transport flow.
	FiveTuple = netaddr.FiveTuple
	// Node is a configured proxy or middlebox dataplane instance.
	Node = enforce.Node
	// NodeID identifies a topology node.
	NodeID = topo.NodeID
)

// Enforcement strategies.
const (
	HotPotato    = enforce.HotPotato
	Random       = enforce.Random
	LoadBalanced = enforce.LoadBalanced
)

// Built-in network functions.
const (
	FW  = policy.FuncFW
	IDS = policy.FuncIDS
	WP  = policy.FuncWP
	TM  = policy.FuncTM
)

// Config assembles a System.
type Config struct {
	// Topology is "campus" (§IV-A real-world campus) or "waxman" (400
	// edge routers / 25 cores).
	Topology string
	// Seed drives topology generation and middlebox placement.
	Seed int64
	// MiddleboxCounts is the population per function; defaults to the
	// paper's 7 FW / 7 IDS / 4 WP / 4 TM.
	MiddleboxCounts map[FuncType]int
	// K is the candidate-set size |M_x^e| per function; defaults to the
	// paper's 4/4/2/2.
	K map[FuncType]int
	// LabelSwitching enables the §III-E enhancement on all nodes.
	LabelSwitching bool
	// FlowTTL / LabelTTL bound soft state (microseconds of virtual or
	// wall time; 0 = never expire).
	FlowTTL, LabelTTL int64
	// HashSeed decorrelates flow-hash selection across runs.
	HashSeed uint64
}

// System is an assembled enforcement deployment: topology, routing,
// policies, controller and nodes.
type System struct {
	Graph    *topo.Graph
	Dep      *enforce.Deployment
	Policies *policy.Table
	AllPairs *route.AllPairs
	Domain   *ospf.Domain
	Nodes    map[NodeID]*Node

	cfg      Config
	ctl      *controller.Controller
	pipe     *controller.Pipeline
	meas     controller.Measurements // the last Balance's traffic
	strategy Strategy
	deployed bool
}

// NewCampus builds a System on the paper's campus topology.
func NewCampus(seed int64) (*System, error) {
	return NewSystem(Config{Topology: "campus", Seed: seed})
}

// NewWaxman builds a System on the paper's random Waxman topology.
func NewWaxman(seed int64) (*System, error) {
	return NewSystem(Config{Topology: "waxman", Seed: seed})
}

// NewSystem builds the topology, places the middlebox population and
// prepares an empty policy table. Call AddPolicy then Deploy.
func NewSystem(cfg Config) (*System, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var g *topo.Graph
	switch cfg.Topology {
	case "", "campus":
		g = topo.Campus(topo.CampusConfig{WithProxies: true}, rng)
	case "waxman":
		g = topo.Waxman(topo.WaxmanConfig{WithProxies: true}, rng)
	default:
		return nil, fmt.Errorf("sdme: unknown topology %q", cfg.Topology)
	}
	dep, err := enforce.NewDeployment(g)
	if err != nil {
		return nil, err
	}
	counts := cfg.MiddleboxCounts
	if counts == nil {
		counts = controller.DefaultCounts()
	}
	dep.PlaceRandom(counts, rng)
	if cfg.K == nil {
		cfg.K = controller.DefaultK()
	}
	return &System{
		Graph:    g,
		Dep:      dep,
		Policies: policy.NewTable(),
		cfg:      cfg,
	}, nil
}

// AddPolicy appends a policy in string form: source and destination
// prefixes ("*" or CIDR), source and destination ports ("*", "80" or
// "1000-2000"), and a comma-separated action list ("FW,IDS" or
// "permit"). Policies match first-added-first.
func (s *System) AddPolicy(src, dst, srcPort, dstPort, actions string) error {
	if s.deployed {
		return fmt.Errorf("sdme: AddPolicy after Deploy; policies are distributed at deploy time")
	}
	d := policy.NewDescriptor()
	var err error
	if d.Src, err = parsePrefix(src); err != nil {
		return err
	}
	if d.Dst, err = parsePrefix(dst); err != nil {
		return err
	}
	if d.SrcPort, err = parsePorts(srcPort); err != nil {
		return err
	}
	if d.DstPort, err = parsePorts(dstPort); err != nil {
		return err
	}
	acts, err := policy.ParseActions(actions)
	if err != nil {
		return err
	}
	s.Policies.Add(d, acts)
	return nil
}

// LoadPolicies reads policies in the Table I-style text format (see
// internal/policy: "<src> <dst> <srcPort> <dstPort> <actions>", '#'
// comments, optional "proto=" field) and appends them in file order.
func (s *System) LoadPolicies(r io.Reader) error {
	if s.deployed {
		return fmt.Errorf("sdme: LoadPolicies after Deploy")
	}
	return policy.ParseRules(r, s.Policies)
}

// MustAddPolicy is AddPolicy that panics on error; for examples and tests.
func (s *System) MustAddPolicy(src, dst, srcPort, dstPort, actions string) {
	if err := s.AddPolicy(src, dst, srcPort, dstPort, actions); err != nil {
		panic(err)
	}
}

func parsePrefix(s string) (netaddr.Prefix, error) {
	if s == "*" || s == "" {
		return netaddr.AnyPrefix(), nil
	}
	return netaddr.ParsePrefix(s)
}

func parsePorts(s string) (netaddr.PortRange, error) {
	if s == "*" || s == "" {
		return netaddr.AnyPort(), nil
	}
	if lo, hi, ok := strings.Cut(s, "-"); ok {
		l, err1 := strconv.ParseUint(lo, 10, 16)
		h, err2 := strconv.ParseUint(hi, 10, 16)
		if err1 != nil || err2 != nil || l > h {
			return netaddr.PortRange{}, fmt.Errorf("sdme: bad port range %q", s)
		}
		return netaddr.PortRange{Lo: uint16(l), Hi: uint16(h)}, nil
	}
	p, err := strconv.ParseUint(s, 10, 16)
	if err != nil {
		return netaddr.PortRange{}, fmt.Errorf("sdme: bad port %q", s)
	}
	return netaddr.SinglePort(uint16(p)), nil
}

// LintPolicies analyzes the policy list for dead (shadowed/redundant)
// and order-dependent (conflicting) policies, returning human-readable
// findings. Run it before Deploy; an empty result means the list is
// clean.
func (s *System) LintPolicies() []string {
	findings := s.Policies.Lint()
	out := make([]string, len(findings))
	for i, f := range findings {
		out[i] = f.String()
	}
	return out
}

// Deploy converges OSPF routing, computes the controller assignments
// (m_x^e, M_x^e, P_x) and materializes every proxy and middlebox with the
// given strategy. Call after all policies are added.
func (s *System) Deploy(strategy Strategy) error {
	if s.deployed {
		return fmt.Errorf("sdme: already deployed")
	}
	s.Domain = ospf.NewDomain(s.Graph)
	s.Domain.Converge()
	s.AllPairs = route.NewAllPairs(s.Graph, route.RouterTransitOnly(s.Graph))
	s.ctl = controller.New(s.Dep, s.AllPairs, s.Policies, controller.Options{
		Strategy:       strategy,
		K:              s.cfg.K,
		LabelSwitching: s.cfg.LabelSwitching,
		FlowTTL:        s.cfg.FlowTTL,
		LabelTTL:       s.cfg.LabelTTL,
		HashSeed:       s.cfg.HashSeed,
	})
	// Every plan, this first one included, comes out of the one pipeline;
	// full solves keep Balance's λ the exact optimum.
	s.pipe = s.ctl.NewPipeline(controller.PipelineOptions{DirtyThreshold: -1})
	upd, err := s.pipe.Recompute(nil)
	if err != nil {
		return err
	}
	nodes, err := s.ctl.BuildNodesFromPlan(upd.Plan)
	if err != nil {
		return err
	}
	s.Nodes = nodes
	s.strategy = strategy
	s.deployed = true
	return nil
}

// Balance runs the controller's load-balancing optimization (Eq. 2 of the
// paper) against the traffic described by demands and installs the
// resulting weights. It returns the optimal λ (the minimized maximum
// load, in packets, under uniform capacities). Only meaningful after
// Deploy(LoadBalanced).
func (s *System) Balance(demands []FlowDemand) (float64, error) {
	if !s.deployed {
		return 0, fmt.Errorf("sdme: Balance before Deploy")
	}
	s.meas = controller.MeasurementsFromFlows(s.Dep, s.Policies, demands)
	if err := s.recompute(); err != nil {
		return 0, err
	}
	return s.pipe.Plan().Lambda, nil
}

// recompute runs the control loop once in process: re-plan over the
// current inputs, then apply the deltas to the nodes in place.
func (s *System) recompute() error {
	upd, err := s.pipe.Recompute(s.meas)
	if err != nil {
		return err
	}
	return controller.ApplyDeltas(s.Nodes, upd.Deltas)
}

// Evaluate routes the demand set through the enforcement logic and
// returns per-middlebox loads (flow-level, exact for per-flow hashing).
func (s *System) Evaluate(demands []FlowDemand) (*LoadReport, error) {
	if !s.deployed {
		return nil, fmt.Errorf("sdme: Evaluate before Deploy")
	}
	return enforce.EvaluateFlows(s.Nodes, s.Dep, s.AllPairs, demands)
}

// Simulator returns a packet-level discrete-event simulation over the
// deployed system. Inject flows, then Run.
func (s *System) Simulator() (*sim.Network, error) {
	if !s.deployed {
		return nil, fmt.Errorf("sdme: Simulator before Deploy")
	}
	return sim.New(s.Graph, s.Domain, s.Dep, s.Nodes), nil
}

// Trace computes the exact middlebox path one flow's packets will take
// under the current configuration, without sending a packet.
func (s *System) Trace(ft FiveTuple) (*enforce.Trace, error) {
	if !s.deployed {
		return nil, fmt.Errorf("sdme: Trace before Deploy")
	}
	return enforce.TraceFlow(s.Nodes, s.Dep, s.AllPairs, ft)
}

// FailMiddlebox marks a middlebox (by node ID) as down and repairs the
// deployment: every node's candidate sets are recomputed over the
// survivors and, under LoadBalanced, the weights re-solved for the last
// Balance's traffic, in place. Pass down=false to bring it back.
func (s *System) FailMiddlebox(id NodeID, down bool) error {
	if !s.deployed {
		return fmt.Errorf("sdme: FailMiddlebox before Deploy")
	}
	if err := s.ctl.MarkFailed(id, down); err != nil {
		return err
	}
	s.pipe.NodeChanged(id)
	return s.recompute()
}

// Verify audits the deployed configuration: for every (policy, source
// subnet) pair it traces a representative flow through the nodes' own
// selection logic and checks the realized chain performs the policy's
// actions in order. An empty result is the "dependable" guarantee,
// mechanically checked.
func (s *System) Verify() []string {
	if !s.deployed {
		return []string{"sdme: Verify before Deploy"}
	}
	vs := s.ctl.Audit(s.Nodes)
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.String()
	}
	return out
}

// Providers returns the middleboxes implementing a function (M^e).
func (s *System) Providers(f FuncType) []NodeID { return s.Dep.Providers(f) }

// NameOf returns a node's human-readable name.
func (s *System) NameOf(id NodeID) string { return s.Graph.Node(id).Name }

// Subnets returns the number of stub subnets (each behind a policy proxy).
func (s *System) Subnets() int { return s.Dep.NumSubnets() }

// HostAddr returns the model address of host h in subnet i (both
// 1-based), for building flow tuples.
func HostAddr(subnet, host int) netaddr.Addr { return topo.HostAddr(subnet, host) }

// Flow builds a TCP flow tuple between two hosts.
func Flow(src, dst netaddr.Addr, srcPort, dstPort uint16) FiveTuple {
	return FiveTuple{Src: src, Dst: dst, SrcPort: srcPort, DstPort: dstPort, Proto: netaddr.ProtoTCP}
}
