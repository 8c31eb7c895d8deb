package enforce

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"sdme/internal/flowtable"
	"sdme/internal/netaddr"
	"sdme/internal/nf"
	"sdme/internal/policy"
	"sdme/internal/topo"
)

// Strategy selects how a node picks the next middlebox for a function.
type Strategy int

// Enforcement strategies (§III-B, §III-C, §IV).
const (
	// HotPotato always forwards to the closest middlebox m_x^e.
	HotPotato Strategy = iota + 1
	// Random picks a uniformly random member of M_x^e (per flow).
	Random
	// LoadBalanced picks from M_x^e with probability proportional to the
	// controller's LP solution.
	LoadBalanced
)

// String renders the strategy.
func (s Strategy) String() string {
	switch s {
	case HotPotato:
		return "HP"
	case Random:
		return "Rand"
	case LoadBalanced:
		return "LB"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// WeightKey addresses one weight vector in a node's LB configuration.
// SrcSubnet/DstSubnet are zero in the aggregated Eq. (2) form (weights
// shared across all sources and destinations); the fine-grained Eq. (1)
// form sets them, and lookups fall back from specific to aggregated.
type WeightKey struct {
	PolicyID             int
	Func                 policy.FuncType
	SrcSubnet, DstSubnet int
}

// Config is the controller-installed per-node configuration.
type Config struct {
	// Policies is the node's relevant policy subset P_x, in global
	// priority order.
	Policies []*policy.Policy
	// Candidates holds M_x^e per function e, ordered closest-first, so
	// Candidates[e][0] is the hot-potato target m_x^e.
	Candidates map[policy.FuncType][]topo.NodeID
	// Weights holds the LB traffic split per (policy, next function);
	// each vector is parallel to Candidates[key.Func]. Nil for HP/Rand.
	Weights map[WeightKey][]float64
	// Strategy selects HP / Rand / LB behaviour.
	Strategy Strategy
	// HashSeed seeds the per-flow selection hash; all nodes share it so
	// diagnostics can reproduce choices, but correctness only needs
	// per-node determinism.
	HashSeed uint64
	// LabelSwitching enables the §III-E label-switching enhancement.
	LabelSwitching bool
	// FlowTTL / LabelTTL are soft-state lifetimes in simulator ticks
	// (microseconds in the discrete-event sim); zero disables expiry.
	FlowTTL, LabelTTL int64
}

// Counters aggregates a node's dataplane activity. The figure benchmarks
// read Load; the ablation benchmarks read the rest.
type Counters struct {
	// PacketsIn counts packets handed to the node.
	PacketsIn int64
	// Load counts packets processed by this node's network function(s) —
	// the per-middlebox load metric of Figures 4/5 and Table III.
	Load int64
	// Classified counts multi-field policy-table lookups (the work the
	// §III-D flow table avoids).
	Classified int64
	// TunnelTx counts IP-over-IP transmissions; LabelTx counts
	// label-switched transmissions; PlainTx counts plain forwards.
	TunnelTx, LabelTx, PlainTx int64
	// ControlTx / ControlRx count label-switching control messages.
	ControlTx, ControlRx int64
	// Dropped counts firewall drops; Served counts proxy cache serves.
	Dropped, Served int64
	// NoProvider counts packets needing a function with no reachable
	// middlebox; LabelMiss counts label lookups that found no entry;
	// Misdirected counts packets that arrived at a node that cannot
	// serve them.
	NoProvider, LabelMiss, Misdirected int64
	// Failovers counts selections locally diverted from a dead provider
	// to a live backup candidate (no controller round-trip involved);
	// Invalidated counts soft-state entries purged by InvalidateProvider.
	Failovers, Invalidated int64
}

// MeasKey identifies one traffic measurement bucket: packets of policy
// PolicyID flowing from SrcSubnet to DstSubnet — enough to reconstruct
// every T quantity of §III-C (T_p, T_{s,p}, T_{d,p}, T_{s,d,p}).
type MeasKey struct {
	PolicyID             int
	SrcSubnet, DstSubnet int
}

// Node is one software-defined device: a policy proxy or a middlebox.
//
// Concurrency contract: configuration mutators (Install, ApplyDelta,
// SetShardTuning, SetMetrics, SetTracer, ResetMeasurements) must be
// serialized with packet handling — the live runtime quiesces its
// worker pool around them, the simulator is single-threaded. Packet
// handlers (HandleOutbound/HandleArrival/HandleControl) may run
// concurrently from multiple workers PROVIDED all packets and control
// frames of one flow stay on one worker (flow-affinity dispatch): the
// soft-state tables are internally lock-striped and cross-flow mutation
// goes through shard-locked table methods, but per-entry field access
// relies on per-flow serialization. Counters are updated atomically;
// read them via CountersSnapshot when workers may be running.
type Node struct {
	ID      topo.NodeID
	Addr    netaddr.Addr
	IsProxy bool
	// SubnetIdx is the proxy's 1-based subnet index (0 for middleboxes).
	SubnetIdx int
	// Funcs maps each implemented function type to its instance.
	Funcs map[policy.FuncType]nf.Function

	cfg        Config
	dep        *Deployment
	classifier policy.Classifier
	flows      *flowtable.Table
	labels     *flowtable.LabelTable

	// meas is guarded by measMu: proxies tally measurements on the packet
	// path, where multiple workers may race on flows of different
	// subnets/policies. The critical section is one map increment.
	measMu sync.Mutex
	meas   map[MeasKey]int64

	// live is the node's provider-liveness view (liveness.go); unlike the
	// rest of the node it is internally synchronized, because the live
	// runtime's health monitor feeds it from its own goroutine.
	live liveView

	// nm / tracer are the optional observability attachments (observe.go);
	// both are nil unless SetMetrics / SetTracer were called.
	nm     *nodeMetrics
	tracer *RuntimeTracer

	// flowShards / labelShards are the lock-striping factors of the
	// soft-state tables Install builds, set by SetShardTuning (rounded to a
	// power of two; 0 and 1 both mean unsharded). Striping is local
	// capacity tuning — the right value depends on the device's worker
	// count, not on policy — so it is no part of Config. tableShards is
	// the pair the current tables were built with.
	flowShards, labelShards int
	tableShards             [2]int

	// Counters is exported for inspection; treat as read-only outside
	// the node's owner, and use CountersSnapshot instead while dataplane
	// workers may be running (fields are updated with atomics).
	Counters Counters
}

// CountersSnapshot returns an atomically-read copy of the node's counters,
// safe to call while packet workers are running.
func (n *Node) CountersSnapshot() Counters {
	c := &n.Counters
	return Counters{
		PacketsIn:   atomic.LoadInt64(&c.PacketsIn),
		Load:        atomic.LoadInt64(&c.Load),
		Classified:  atomic.LoadInt64(&c.Classified),
		TunnelTx:    atomic.LoadInt64(&c.TunnelTx),
		LabelTx:     atomic.LoadInt64(&c.LabelTx),
		PlainTx:     atomic.LoadInt64(&c.PlainTx),
		ControlTx:   atomic.LoadInt64(&c.ControlTx),
		ControlRx:   atomic.LoadInt64(&c.ControlRx),
		Dropped:     atomic.LoadInt64(&c.Dropped),
		Served:      atomic.LoadInt64(&c.Served),
		NoProvider:  atomic.LoadInt64(&c.NoProvider),
		LabelMiss:   atomic.LoadInt64(&c.LabelMiss),
		Misdirected: atomic.LoadInt64(&c.Misdirected),
		Failovers:   atomic.LoadInt64(&c.Failovers),
		Invalidated: atomic.LoadInt64(&c.Invalidated),
	}
}

// NewProxy creates a policy proxy node for the given deployment proxy
// node ID.
func NewProxy(dep *Deployment, id topo.NodeID) *Node {
	n := dep.Graph.Node(id)
	if n.Kind != topo.KindProxy {
		panic(fmt.Sprintf("enforce: node %v is not a proxy", id))
	}
	return &Node{
		ID: id, Addr: n.Addr, IsProxy: true,
		SubnetIdx: topo.SubnetIndexOf(n.Addr),
		dep:       dep,
		meas:      make(map[MeasKey]int64),
	}
}

// FunctionFactory constructs a function instance for a middlebox;
// nf.New is the default. Custom deployments supply their own to add
// function types beyond the built-in four (register the type with
// policy.RegisterFunc first).
type FunctionFactory func(policy.FuncType) (nf.Function, error)

// NewMiddlebox creates a middlebox node, materializing default function
// instances for every function the deployment assigns it.
func NewMiddlebox(dep *Deployment, id topo.NodeID) (*Node, error) {
	return NewMiddleboxWith(dep, id, nf.New)
}

// NewMiddleboxWith is NewMiddlebox with a custom function factory.
func NewMiddleboxWith(dep *Deployment, id topo.NodeID, factory FunctionFactory) (*Node, error) {
	gn := dep.Graph.Node(id)
	if gn.Kind != topo.KindMiddlebox {
		return nil, fmt.Errorf("enforce: node %v is not a middlebox", id)
	}
	if factory == nil {
		factory = nf.New
	}
	funcs := make(map[policy.FuncType]nf.Function)
	for _, ft := range dep.FuncsOf(id) {
		f, err := factory(ft)
		if err != nil {
			return nil, err
		}
		funcs[ft] = f
	}
	return &Node{
		ID: id, Addr: gn.Addr,
		Funcs: funcs,
		dep:   dep,
	}, nil
}

// Install is the one way a node's configuration changes; ApplyDelta is
// Install of the merged configuration. One rule, computed from the
// installed and the new configuration, decides what soft state survives:
// the tables are built fresh when none exist, when a setting outside
// Policies, Candidates and Weights differs (strategy, hash seed, label
// switching, TTLs) or when SetShardTuning changed the striping; otherwise
// only what the change can make wrong is purged (purge). Re-installing the
// running configuration purges nothing, so label-switched flows keep their
// paths through it. The classifier is rebuilt only when the policy list is
// not the installed one.
//
// Action lists with repeated function types are rejected, leaving the node
// untouched: the dataplane infers a packet's chain position from which of
// its functions appears in the list, which requires uniqueness.
func (n *Node) Install(cfg Config) error {
	old := n.cfg
	samePolicies := n.classifier != nil && slices.Equal(old.Policies, cfg.Policies)
	var upserts []*policy.Policy
	var removes []int
	if !samePolicies {
		upserts, removes, _ = DiffPolicies(old.Policies, cfg.Policies)
		for _, p := range upserts { // the others passed when installed
			seen := map[policy.FuncType]bool{}
			for _, f := range p.Actions {
				if seen[f] {
					return fmt.Errorf("enforce: %v repeats function %v; unsupported", p, f)
				}
				seen[f] = true
			}
		}
	}
	shards := [2]int{n.flowShards, n.labelShards}
	fresh := n.flows == nil || n.tableShards != shards ||
		old.Strategy != cfg.Strategy || old.HashSeed != cfg.HashSeed ||
		old.LabelSwitching != cfg.LabelSwitching ||
		old.FlowTTL != cfg.FlowTTL || old.LabelTTL != cfg.LabelTTL

	n.cfg = cfg
	if !samePolicies {
		n.classifier = policy.NewClassifier(cfg.Policies)
	}
	if !fresh {
		n.purge(old, upserts, removes)
		return nil
	}
	n.tableShards = shards
	n.flows = flowtable.NewTableSharded(cfg.FlowTTL, n.flowShards)
	if !n.IsProxy {
		n.labels = flowtable.NewLabelTableSharded(cfg.LabelTTL, n.labelShards)
	}
	return nil
}

// SetShardTuning sets the node's table striping. It applies on the next
// Install, which rebuilds the tables when the striping differs from the
// one they were built with — call it before installing, alongside
// SetMetrics/SetTracer. Zero keeps single-shard tables. This is a
// configuration mutator under the Node concurrency contract.
func (n *Node) SetShardTuning(flowShards, labelShards int) {
	n.flowShards, n.labelShards = flowShards, labelShards
}

// Config returns the installed configuration.
func (n *Node) Config() Config { return n.cfg }

// FlowTable exposes the node's flow hash table (for tests and stats).
func (n *Node) FlowTable() *flowtable.Table { return n.flows }

// LabelTable exposes the node's label table (nil on proxies).
func (n *Node) LabelTable() *flowtable.LabelTable { return n.labels }

// Measurements returns a copy of the proxy's per-policy traffic counts.
func (n *Node) Measurements() map[MeasKey]int64 {
	n.measMu.Lock()
	defer n.measMu.Unlock()
	out := make(map[MeasKey]int64, len(n.meas))
	for k, v := range n.meas {
		out[k] = v
	}
	return out
}

// ResetMeasurements clears the measurement counters (the controller
// collects periodically; §III-C).
func (n *Node) ResetMeasurements() {
	n.measMu.Lock()
	defer n.measMu.Unlock()
	n.meas = make(map[MeasKey]int64)
}

// SelectNext picks the middlebox that should perform function e on the
// given flow, following the node's strategy. The flow tuple must be the
// ORIGINAL flow 5-tuple (not a label-rewritten header), so the choice is
// identical for every packet of the flow.
//
// When the strategy's pick is marked dead in the node's liveness view,
// the selection deterministically fails over to the next live candidate
// in the ranked (closest-first) list — the pre-installed backup set — so
// flows resume without any controller round-trip. ErrNoLiveProvider
// (via NoLiveCandidateError) surfaces when no live candidate remains.
func (n *Node) SelectNext(policyID int, e policy.FuncType, flow netaddr.FiveTuple) (topo.NodeID, error) {
	cands := n.cfg.Candidates[e]
	if len(cands) == 0 {
		atomic.AddInt64(&n.Counters.NoProvider, 1)
		return topo.InvalidNode, &NoLiveCandidateError{Node: n.ID, Func: e}
	}
	var pick int
	switch n.cfg.Strategy {
	case HotPotato:
		pick = 0
	case Random:
		h := flow.Hash(n.hashSeed() ^ 0xa5a5a5a5a5a5a5a5)
		pick = int(h % uint64(len(cands)))
	case LoadBalanced:
		w := n.lookupWeights(policyID, e, flow)
		pick = pickWeightedIdx(cands, w, flow.Hash(n.hashSeed()))
	default:
		return topo.InvalidNode, fmt.Errorf("enforce: node %v has no strategy installed", n.ID)
	}
	if !n.live.down(cands[pick]) {
		return cands[pick], nil
	}
	// Local fast failover: scan the ranked list from the preferred pick.
	for off := 1; off < len(cands); off++ {
		alt := cands[(pick+off)%len(cands)]
		if !n.live.down(alt) {
			atomic.AddInt64(&n.Counters.Failovers, 1)
			if n.nm != nil {
				n.nm.failovers.Inc()
			}
			return alt, nil
		}
	}
	atomic.AddInt64(&n.Counters.NoProvider, 1)
	return topo.InvalidNode, &NoLiveCandidateError{Node: n.ID, Func: e}
}

// hashSeed salts the configured seed with this node's identity. The salt
// matters: if every hop hashed the flow with the same seed, the flows
// reaching a middlebox would be exactly those whose hash fell inside the
// upstream selection interval, so the downstream hash — the same value —
// would be conditioned on that interval and the realized split would be
// systematically skewed away from the configured weights. Per-node salts
// make consecutive choices independent while staying deterministic per
// flow, which is all §III-C requires.
func (n *Node) hashSeed() uint64 {
	// SplitMix64 finalizer over the node ID.
	z := uint64(n.ID) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return n.cfg.HashSeed ^ z
}

// lookupWeights resolves the weight vector for (policy, function),
// preferring the fine-grained (src, dst) key of Eq. (1) and falling back
// to the aggregated Eq. (2) key, then to nil (uniform).
func (n *Node) lookupWeights(policyID int, e policy.FuncType, flow netaddr.FiveTuple) []float64 {
	if n.cfg.Weights == nil {
		return nil
	}
	src := n.dep.SubnetIndexOf(flow.Src)
	dst := n.dep.SubnetIndexOf(flow.Dst)
	if w, ok := n.cfg.Weights[WeightKey{PolicyID: policyID, Func: e, SrcSubnet: src, DstSubnet: dst}]; ok {
		return w
	}
	if w, ok := n.cfg.Weights[WeightKey{PolicyID: policyID, Func: e}]; ok {
		return w
	}
	return nil
}

// pickWeighted implements the paper's hash-proportional selection: with
// hash value r in [0, N), candidate y_i is chosen when r/N falls in the
// cumulative weight interval of y_i. Nil/zero weights degrade to uniform.
func pickWeighted(cands []topo.NodeID, weights []float64, hash uint64) topo.NodeID {
	return cands[pickWeightedIdx(cands, weights, hash)]
}

// pickWeightedIdx is pickWeighted returning the candidate's index, so the
// failover scan can start from the strategy's preferred rank.
func pickWeightedIdx(cands []topo.NodeID, weights []float64, hash uint64) int {
	if len(cands) == 1 {
		return 0
	}
	var total float64
	if len(weights) == len(cands) {
		for _, w := range weights {
			total += w
		}
	}
	if total <= 0 {
		return int(hash % uint64(len(cands)))
	}
	// Map hash to [0, 1) with 53-bit precision.
	r := float64(hash>>11) / float64(1<<53) * total
	for i, w := range weights {
		r -= w
		if r < 0 {
			return i
		}
	}
	return len(cands) - 1
}

// classify resolves a flow against the node's relevant policy set P_x via
// the flow hash table (§III-D): table hit answers immediately, miss runs
// the multi-field classifier and installs a (possibly null) entry.
func (n *Node) classify(ft netaddr.FiveTuple, now int64) *flowtable.Entry {
	if e, ok := n.flows.Lookup(ft, now); ok {
		return e
	}
	atomic.AddInt64(&n.Counters.Classified, 1)
	p := n.classifier.Match(ft)
	if p == nil {
		return n.flows.InsertNull(ft, now)
	}
	return n.flows.Insert(ft, p.ID, p.Actions, now)
}

// myFunc returns which function of the action list this node performs:
// the earliest implemented one. ok is false if the node implements none
// of them (a misdirected packet).
func (n *Node) myFunc(a policy.ActionList) (policy.FuncType, bool) {
	for _, f := range a {
		if _, ok := n.Funcs[f]; ok {
			return f, true
		}
	}
	return 0, false
}
