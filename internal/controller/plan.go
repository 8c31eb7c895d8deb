package controller

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"maps"
	"reflect"
	"sort"

	"sdme/internal/enforce"
	"sdme/internal/policy"
	"sdme/internal/topo"
)

// Stage 1 of the compilation pipeline: compile the policy table, the
// topology assignments and the traffic measurements into a canonical Plan
// IR. The IR is what the incremental stages operate on — Stage 2 re-solves
// only the chain instances whose identity hash changed, and Stage 3 diffs
// two Plans into per-node ConfigDeltas.

// InstanceKey identifies one chain instance: Eq. (2) instances aggregate
// all sources of a policy (subnets zero), Eq. (1) instances are one
// (policy, source subnet, destination subnet) triple.
type InstanceKey struct {
	PolicyID             int
	SrcSubnet, DstSubnet int
}

// ChainInstance is one unit of LP construction: a policy chain with
// per-source demand. It is also the unit of incremental recomputation:
// Hash captures every input that can change the instance's slice of the
// LP, and Touched lists the nodes participating in it.
type ChainInstance struct {
	Key InstanceKey
	Pol *policy.Policy
	// SrcVols maps source proxy node -> measured packets.
	SrcVols map[topo.NodeID]int64
	// Touched is the sorted set of nodes this instance involves: the
	// source proxies plus the closure of candidate providers reachable
	// along the chain. The dependency index inverts it.
	Touched []topo.NodeID
	// Hash is the instance's identity: policy rule hash, demands, and the
	// candidate list of every node the chain can traverse. Equal hashes
	// mean the instance contributes identical variables and constraints.
	Hash uint64
}

// DepIndex maps plan inputs to the chain instances they affect, so a
// policy edit, a node event or a measurement shift dirties exactly the
// instances that must re-enter the LP.
type DepIndex struct {
	ByPolicy map[int][]InstanceKey
	ByNode   map[topo.NodeID][]InstanceKey
	ByFunc   map[policy.FuncType][]InstanceKey
}

// Plan is the compiled intermediate representation of one controller
// output: everything the nodes will be configured with, plus the
// dependency structure the incremental stages need.
type Plan struct {
	// Version is a monotonically increasing plan number (assigned by the
	// Pipeline; zero for one-shot compiles).
	Version uint64
	// Fine records which formulation the instances follow (Eq. 1 vs 2).
	Fine bool
	// Candidates is M_x^e for every proxy and middlebox.
	Candidates map[topo.NodeID]map[policy.FuncType][]topo.NodeID
	// NodePolicies is each node's relevant policy subset P_x in global
	// priority order.
	NodePolicies map[topo.NodeID][]*policy.Policy
	// Instances are the chain instances; Order is their canonical solve
	// order (sorted by key).
	Instances map[InstanceKey]*ChainInstance
	Order     []InstanceKey
	// Weights is the solved weight plan (nil until Stage 2 runs, and for
	// HP/Random strategies); Lambda is the network-wide load factor of
	// the solve that produced it.
	Weights map[topo.NodeID]map[enforce.WeightKey][]float64
	Lambda  float64
	// InstanceLoads records each instance's expected per-middlebox load
	// contribution from the solve that produced Weights. Carried-forward
	// instances re-enter later scoped solves as these constant base loads.
	InstanceLoads map[InstanceKey]map[topo.NodeID]float64
	// Index is the dependency index over Instances.
	Index *DepIndex
}

// CompilePlan runs Stage 1: it canonicalizes the measurements into chain
// instances (fine selects Eq. 1) over the candidate assignments of the
// current failed-set, computes every node's relevant policy subset, and
// builds the dependency index. The returned plan has no weights yet. A
// function whose last live provider failed makes the plan impossible: the
// typed *NoLiveProviderError (errors.Is ErrNoLiveProvider) says which.
func (c *Controller) CompilePlan(meas Measurements, fine bool) (*Plan, error) {
	p, _, err := c.compilePlan(meas, fine, nil)
	return p, err
}

// compilePlan is CompilePlan against the previous plan: an instance whose
// policy pointer and demands are prev's under the same assignment keeps
// prev's Touched and Hash, which depend on nothing else. It also returns
// how many instances were reused that way.
func (c *Controller) compilePlan(meas Measurements, fine bool, prev *Plan) (*Plan, int, error) {
	for _, e := range c.dep.Functions() {
		if len(c.liveProviders(e)) == 0 {
			return nil, 0, &NoLiveProviderError{Func: e}
		}
	}
	if c.candidates == nil {
		c.computeAssignments()
	}
	insts, err := c.chainInstances(meas, fine)
	if err != nil {
		return nil, 0, err
	}
	p := &Plan{
		Fine:         fine,
		Candidates:   c.candidates,
		NodePolicies: make(map[topo.NodeID][]*policy.Policy),
		Instances:    make(map[InstanceKey]*ChainInstance, len(insts)),
		Order:        make([]InstanceKey, 0, len(insts)),
		Index: &DepIndex{
			ByPolicy: make(map[int][]InstanceKey),
			ByNode:   make(map[topo.NodeID][]InstanceKey),
			ByFunc:   make(map[policy.FuncType][]InstanceKey),
		},
	}
	for _, id := range c.dep.ProxyNodes {
		subnet := c.dep.Graph.Node(id).Subnet
		p.NodePolicies[id] = c.policies.SrcRelevant(subnet)
	}
	for _, id := range c.dep.MBNodes {
		p.NodePolicies[id] = c.policies.FuncRelevant(c.dep.FuncsOf(id))
	}
	var prevInsts map[InstanceKey]*ChainInstance
	if prev != nil && prev.Fine == fine && sameAssignment(prev.Candidates, p.Candidates) {
		prevInsts = prev.Instances
	}
	reused := 0
	for _, inst := range insts {
		if old := prevInsts[inst.Key]; old != nil && old.Pol == inst.Pol && maps.Equal(old.SrcVols, inst.SrcVols) {
			inst.Touched, inst.Hash = old.Touched, old.Hash
			reused++
		} else if err := c.indexInstance(inst); err != nil {
			return nil, 0, err
		}
		p.Instances[inst.Key] = inst
		p.Order = append(p.Order, inst.Key)
		p.Index.ByPolicy[inst.Key.PolicyID] = append(p.Index.ByPolicy[inst.Key.PolicyID], inst.Key)
		for _, x := range inst.Touched {
			p.Index.ByNode[x] = append(p.Index.ByNode[x], inst.Key)
		}
		for _, f := range inst.Pol.Actions {
			p.Index.ByFunc[f] = append(p.Index.ByFunc[f], inst.Key)
		}
	}
	return p, reused, nil
}

// sameAssignment reports whether two plans carry the same candidate map
// (one computeAssignments), not merely equal ones: then every list in it
// is identical, and nothing that derives from the lists can differ.
func sameAssignment(a, b map[topo.NodeID]map[policy.FuncType][]topo.NodeID) bool {
	return a != nil && reflect.ValueOf(a).UnsafePointer() == reflect.ValueOf(b).UnsafePointer()
}

// chainInstances canonicalizes a measurement matrix into chain instances:
// one per policy for the aggregated Eq. (2) form, one per (policy, source
// subnet, destination subnet) triple for the fine-grained Eq. (1) form.
// Instances come back in canonical (sorted key) order. Permit policies
// produce no instances.
func (c *Controller) chainInstances(meas Measurements, fine bool) ([]*ChainInstance, error) {
	byID := c.policyIndex()
	grouped := make(map[InstanceKey]*ChainInstance)
	for k, v := range meas {
		p, ok := byID[k.PolicyID]
		if !ok {
			return nil, fmt.Errorf("controller: measurement for unknown policy %d", k.PolicyID)
		}
		if p.Actions.IsPermit() {
			continue
		}
		proxyID, ok := c.dep.ProxyFor(k.SrcSubnet)
		if !ok {
			return nil, fmt.Errorf("controller: measurement from unknown subnet %d", k.SrcSubnet)
		}
		key := InstanceKey{PolicyID: k.PolicyID}
		if fine {
			key.SrcSubnet, key.DstSubnet = k.SrcSubnet, k.DstSubnet
		}
		inst := grouped[key]
		if inst == nil {
			inst = &ChainInstance{Key: key, Pol: p, SrcVols: make(map[topo.NodeID]int64)}
			grouped[key] = inst
		}
		inst.SrcVols[proxyID] += v
	}
	keys := make([]InstanceKey, 0, len(grouped))
	for k := range grouped {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return lessInstanceKey(keys[i], keys[j]) })
	insts := make([]*ChainInstance, len(keys))
	for i, k := range keys {
		insts[i] = grouped[k]
	}
	return insts, nil
}

func lessInstanceKey(a, b InstanceKey) bool {
	if a.PolicyID != b.PolicyID {
		return a.PolicyID < b.PolicyID
	}
	if a.SrcSubnet != b.SrcSubnet {
		return a.SrcSubnet < b.SrcSubnet
	}
	return a.DstSubnet < b.DstSubnet
}

// indexInstance fills an instance's Touched closure and identity Hash by
// walking the chain stages exactly as buildChain will: sources pick the
// first function's candidates, each stage's providers pick the next
// function's. A missing candidate list is the same error the LP builder
// would raise. The hash is compared only in memory (dirtySet), so it
// takes the fields as fixed-width words, each list after its length.
func (c *Controller) indexInstance(inst *ChainInstance) error {
	buf := make([]byte, 0, 256)
	put := func(v int64) { buf = binary.LittleEndian.AppendUint64(buf, uint64(v)) }
	put(int64(inst.Key.PolicyID))
	put(int64(inst.Key.SrcSubnet))
	put(int64(inst.Key.DstSubnet))
	put(int64(inst.Pol.Hash()))
	touched := make(map[topo.NodeID]bool)
	cur := sortedNodeKeys(inst.SrcVols)
	put(int64(len(cur)))
	for _, s := range cur {
		touched[s] = true
		put(int64(s))
		put(inst.SrcVols[s])
	}
	for i, e := range inst.Pol.Actions {
		next := make(map[topo.NodeID]bool)
		for _, x := range cur {
			cands := c.candidates[x][e]
			if len(cands) == 0 {
				kind := "proxy"
				if i > 0 {
					kind = "middlebox"
				}
				return fmt.Errorf("controller: %s %v has no candidates for %v", kind, x, e)
			}
			put(int64(i))
			put(int64(x))
			put(int64(len(cands)))
			for _, y := range cands {
				put(int64(y))
				next[y] = true
				touched[y] = true
			}
		}
		cur = sortedNodeKeys(next)
	}
	inst.Touched = sortedNodeKeys(touched)
	h := fnv.New64a()
	h.Write(buf)
	inst.Hash = h.Sum64()
	return nil
}

// NodeConfigs derives every proxy's and middlebox's configuration from a
// compiled plan: candidate sets, relevant policies P_x, strategy, feature
// flags and, when the plan has been solved, LB weights. It is the one
// derivation of a node's configuration; every later change reaches the
// nodes as a delta, and the churn property test checks the two agree.
func (c *Controller) NodeConfigs(p *Plan) map[topo.NodeID]enforce.Config {
	out := make(map[topo.NodeID]enforce.Config, len(c.dep.ProxyNodes)+len(c.dep.MBNodes))
	for _, ids := range [][]topo.NodeID{c.dep.ProxyNodes, c.dep.MBNodes} {
		for _, id := range ids {
			cfg := enforce.Config{
				Candidates:     p.Candidates[id],
				Policies:       p.NodePolicies[id],
				Strategy:       c.opts.Strategy,
				HashSeed:       c.opts.HashSeed,
				LabelSwitching: c.opts.LabelSwitching,
				FlowTTL:        c.opts.FlowTTL,
				LabelTTL:       c.opts.LabelTTL,
			}
			if w := p.Weights[id]; len(w) > 0 {
				cfg.Weights = w
			}
			out[id] = cfg
		}
	}
	return out
}

// BuildNodesFromPlan materializes every proxy, then every middlebox, and
// installs its NodeConfigs configuration. It is the only from-scratch
// build.
func (c *Controller) BuildNodesFromPlan(p *Plan) (map[topo.NodeID]*enforce.Node, error) {
	cfgs := c.NodeConfigs(p)
	nodes := make(map[topo.NodeID]*enforce.Node, len(cfgs))
	for _, id := range c.dep.ProxyNodes {
		nodes[id] = enforce.NewProxy(c.dep, id)
	}
	for _, id := range c.dep.MBNodes {
		var err error
		if nodes[id], err = enforce.NewMiddleboxWith(c.dep, id, c.opts.FunctionFactory); err != nil {
			return nil, err
		}
	}
	for _, id := range sortedNodeKeys(nodes) {
		if err := nodes[id].Install(cfgs[id]); err != nil {
			return nil, fmt.Errorf("controller: configure node %v: %w", id, err)
		}
	}
	return nodes, nil
}
