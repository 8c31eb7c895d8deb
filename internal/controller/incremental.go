package controller

import (
	"errors"
	"fmt"

	"sdme/internal/enforce"
	"sdme/internal/lp"
	"sdme/internal/mgmt"
	"sdme/internal/topo"
)

// Stage 2 of the compilation pipeline: incremental re-solve. A Pipeline
// owns the last compiled plan; on each Recompute it compiles the current
// inputs against it (Stage 1, which reuses what the inputs left clean),
// determines which chain instances are dirty via the instance identity
// hashes and the dependency index, re-solves only those (carrying every
// clean instance's weights forward and charging its expected loads as
// constant base loads in the LP), and diffs the result against the
// previous plan into per-node ConfigDeltas (Stage 3). When
// the dirty fraction exceeds DirtyThreshold the scoped solve would
// rebuild most of the program anyway, so the pipeline falls back to a
// full solve — which is also what re-tightens the spread heuristic's
// carried approximations.
type Pipeline struct {
	c    *Controller
	opts PipelineOptions

	plan    *Plan
	version uint64

	// Explicit dirty marks, folded into the hash-based detection at the
	// next Recompute (they force instances dirty even when their inputs
	// hash equal, e.g. to re-tighten carried spread approximations).
	dirtyPolicies map[int]bool
	dirtyNodes    map[topo.NodeID]bool

	// basis is the optimal basis of the last full solve, the next one's
	// start (lp.Problem.SolveFrom). It lives in memory only: a restart or
	// a takeover solves cold.
	basis *lp.Basis

	// undo is what the last Recompute replaced; Rollback restores it when
	// the fleet refused that plan's rollout.
	undo *pipelineUndo
}

type pipelineUndo struct {
	plan          *Plan
	basis         *lp.Basis
	dirtyPolicies map[int]bool
	dirtyNodes    map[topo.NodeID]bool
	journaled     bool // the undone Recompute wrote a weights record
}

// PipelineOptions configures a Pipeline.
type PipelineOptions struct {
	// Fine selects the Eq. (1) fine-grained formulation.
	Fine bool
	// DirtyThreshold is the dirty-instance fraction above which Recompute
	// performs a full solve instead of a scoped one. Zero means the
	// default of 0.5; negative disables scoped solves entirely.
	DirtyThreshold float64
}

func (o PipelineOptions) threshold() float64 {
	if o.DirtyThreshold == 0 {
		return 0.5
	}
	return o.DirtyThreshold
}

// PlanStats describes one Recompute.
type PlanStats struct {
	// Instances / Dirty count the plan's chain instances and how many of
	// them re-entered the LP.
	Instances, Dirty int
	// FullSolve reports whether the dirty set exceeded the threshold (or
	// no previous solution existed) and the LP was solved from scratch.
	FullSolve bool
	// Solved reports whether an LP ran at all (false for HP/Random
	// strategies and for no-op recomputes).
	Solved bool
	// Delta sizes the emitted configuration diff.
	Delta DeltaStats
}

// PlanUpdate is the outcome of one Recompute: the new plan, the per-node
// deltas transforming the previous plan's configuration into it (on the
// first compile, the diff against the empty plan: a full push is a delta
// against the empty base), and the LP solution when one ran.
type PlanUpdate struct {
	Plan     *Plan
	Solution *LBSolution
	Deltas   map[topo.NodeID]enforce.ConfigDelta
	Stats    PlanStats
}

// NewPipeline creates an incremental compilation pipeline over the
// controller. After RestoreFromJournal it starts from the journaled plan.
func (c *Controller) NewPipeline(opts PipelineOptions) *Pipeline {
	p := &Pipeline{
		c:             c,
		opts:          opts,
		dirtyPolicies: make(map[int]bool),
		dirtyNodes:    make(map[topo.NodeID]bool),
	}
	if c.restored != nil {
		plan := *c.restored
		plan.Fine = opts.Fine
		p.plan = &plan
	}
	return p
}

// Deploy takes the controller through the control loop's first turn: a
// new pipeline starts from the journaled plan when RestoreFromJournal
// restored one, or else compiles the first plan over meas (solving the LB
// weights when the strategy is LoadBalanced and there is traffic), and
// every node is built from that plan. The update is nil for a journaled
// plan, which no Recompute produced. Later turns are Recompute and the
// deltas.
func (c *Controller) Deploy(opts PipelineOptions, meas Measurements) (*Pipeline, map[topo.NodeID]*enforce.Node, *PlanUpdate, error) {
	pipe := c.NewPipeline(opts)
	var upd *PlanUpdate
	if pipe.plan == nil {
		var err error
		if upd, err = pipe.Recompute(meas); err != nil {
			return nil, nil, nil, err
		}
	}
	nodes, err := c.BuildNodesFromPlan(pipe.plan)
	if err != nil {
		return nil, nil, nil, err
	}
	return pipe, nodes, upd, nil
}

// Plan returns the last compiled plan (nil before the first Recompute,
// unless the controller was restored from a journal).
func (p *Pipeline) Plan() *Plan { return p.plan }

// PolicyChanged marks a policy as edited (added, removed or updated):
// every chain instance depending on it re-enters the LP at the next
// Recompute even if its inputs hash equal.
func (p *Pipeline) PolicyChanged(id int) { p.dirtyPolicies[id] = true }

// NodeChanged marks a node event (failure, recovery, capacity change):
// every chain instance touching the node is forced dirty at the next
// Recompute.
func (p *Pipeline) NodeChanged(id topo.NodeID) { p.dirtyNodes[id] = true }

// Recompute runs the three pipeline stages over the given measurements
// and returns the new plan plus the deltas that reach it from the
// previous one. It is the only way a plan is computed: a full solve is
// "everything dirty", a failure repair MarkFailed + NodeChanged + Recompute.
func (p *Pipeline) Recompute(meas Measurements) (*PlanUpdate, error) {
	c := p.c
	var at stageStamps
	at[0] = c.clockUS()
	plan, reused, err := c.compilePlan(meas, p.opts.Fine, p.plan)
	if err != nil {
		return nil, err
	}
	at[stageCompile+1] = c.clockUS()

	dirty := p.dirtySet(plan)
	stats := PlanStats{Instances: len(plan.Order), Dirty: len(dirty)}

	var sol *LBSolution
	if c.opts.Strategy == enforce.LoadBalanced && len(plan.Order) > 0 {
		if sol, err = p.solve(plan, dirty, &stats); err != nil {
			return nil, err
		}
	}
	// Whichever way the plan came about (no LP, carried through, a scoped
	// or a full solve), it is checked whole before it is diffed or
	// journaled.
	if err := c.verifyPlan(plan); err != nil {
		return nil, err
	}
	at[stageSolve+1] = c.clockUS()

	deltas, dstats := DiffPlans(p.plan, plan)
	stats.Delta = dstats
	at[stageDiff+1] = c.clockUS()
	p.version++
	plan.Version = p.version
	journaled := sol != nil || reweighted(deltas)
	if journaled {
		// Write-ahead: journal the merged plan before the caller can push
		// anything — after every solve, and whenever the weights moved
		// without one (a carried-forward plan that dropped vectors, a
		// plan left with no demand), or a restore would resurrect them.
		if err := c.journalWeights(plan.Lambda, plan.Weights); err != nil {
			return nil, err
		}
	}
	at[stageJournal+1] = c.clockUS()
	if sol != nil {
		c.observeSolveStats(sol)
	}
	c.observePlanDelta(stats.Delta)
	p.undo = &pipelineUndo{plan: p.plan, basis: p.basis, dirtyPolicies: p.dirtyPolicies, dirtyNodes: p.dirtyNodes, journaled: journaled}
	p.plan = plan
	if stats.FullSolve {
		p.basis = sol.basis
	}
	p.dirtyPolicies = make(map[int]bool)
	p.dirtyNodes = make(map[topo.NodeID]bool)

	c.observeRecompute(&at, reused, len(plan.Order)-reused)
	return &PlanUpdate{Plan: plan, Solution: sol, Deltas: deltas, Stats: stats}, nil
}

// reweighted reports whether any delta sets or drops a weight vector.
func reweighted(deltas map[topo.NodeID]enforce.ConfigDelta) bool {
	for _, d := range deltas {
		if len(d.SetWeights) > 0 || len(d.DropWeights) > 0 {
			return true
		}
	}
	return false
}

// Rollback undoes the last Recompute after the fleet refused its rollout
// (an aborted 2PC: no node holds the plan). The next Recompute then diffs
// against the plan the nodes still run, with the dirty marks the refused
// plan had consumed pending again. If the refused plan was journaled, the
// restored one is journaled anew — without weights, if it has none — so a
// restart reproduces what the fleet holds, not what it refused. Without a
// Recompute to undo it is a no-op.
func (p *Pipeline) Rollback() error {
	u := p.undo
	if u == nil {
		return nil
	}
	p.undo = nil
	p.plan, p.basis = u.plan, u.basis
	for id := range u.dirtyPolicies {
		p.dirtyPolicies[id] = true
	}
	for id := range u.dirtyNodes {
		p.dirtyNodes[id] = true
	}
	switch {
	case !u.journaled: // the last weights record is still the restored plan's
		return nil
	case p.plan == nil:
		return p.c.journalWeights(0, nil)
	}
	return p.c.journalWeights(p.plan.Lambda, p.plan.Weights)
}

// Apply is the in-process rollout of a plan update: its per-node deltas,
// which Node.Install's rule turns into purging only what they change, or,
// for a nil update, the whole current plan as NodeConfigs derives it. The
// caller must own the nodes.
func (p *Pipeline) Apply(nodes map[topo.NodeID]*enforce.Node, upd *PlanUpdate) error {
	if upd != nil {
		for id, d := range upd.Deltas {
			if n, ok := nodes[id]; ok {
				if err := n.ApplyDelta(d); err != nil {
					return fmt.Errorf("controller: apply delta on node %v: %w", id, err)
				}
			}
		}
		return nil
	}
	for id, cfg := range p.c.NodeConfigs(p.plan) {
		if n, ok := nodes[id]; ok {
			if err := n.Install(cfg); err != nil {
				return fmt.Errorf("controller: configure node %v: %w", id, err)
			}
		}
	}
	return nil
}

// Rollout is the wire rollout: it pushes a plan update's deltas through
// the management server's epoch-fenced two-phase protocol and, when the
// fleet refused them, rolls the pipeline back so its diff base never runs
// ahead of the nodes. A nil update is the whole current plan: a delta
// against the empty plan, carried by NodeConfigs for every node srv holds
// no base for. A commit straggler is not a refusal: the plan is decided
// and the straggler heals through the reconnect re-push.
func (p *Pipeline) Rollout(srv *mgmt.Server, upd *PlanUpdate, pol mgmt.RetryPolicy) (uint64, error) {
	var fallback map[topo.NodeID]mgmt.ConfigDTO
	if upd == nil {
		cfgs := p.c.NodeConfigs(p.plan)
		fallback = make(map[topo.NodeID]mgmt.ConfigDTO, len(cfgs))
		for id, cfg := range cfgs {
			fallback[id] = mgmt.ConfigToDTO(0, cfg)
		}
		upd = &PlanUpdate{}
		upd.Deltas, _ = DiffPlans(nil, p.plan)
	}
	epoch, err := srv.PushAllDelta2PC(upd.Deltas, fallback, pol)
	if err != nil && !errors.Is(err, mgmt.ErrCommitStraggler) {
		err = errors.Join(err, p.Rollback())
	}
	return epoch, err
}

// dirtySet computes which of the new plan's instances must re-enter the
// LP: instances that are new or whose identity hash changed (policy rule,
// demand, or any candidate list along the chain), plus instances matched
// by explicit PolicyChanged/NodeChanged marks.
func (p *Pipeline) dirtySet(plan *Plan) map[InstanceKey]bool {
	dirty := make(map[InstanceKey]bool)
	if p.plan == nil {
		for _, k := range plan.Order {
			dirty[k] = true
		}
		return dirty
	}
	for _, k := range plan.Order {
		old, ok := p.plan.Instances[k]
		if !ok || old.Hash != plan.Instances[k].Hash {
			dirty[k] = true
		}
	}
	for id := range p.dirtyPolicies {
		for _, k := range plan.Index.ByPolicy[id] {
			dirty[k] = true
		}
	}
	for id := range p.dirtyNodes {
		for _, k := range plan.Index.ByNode[id] {
			dirty[k] = true
		}
	}
	return dirty
}

// solve runs Stage 2 proper: scoped or full LP solve and weight merge. It
// returns the LP's solution over the merged plan, nil when no LP ran.
func (p *Pipeline) solve(plan *Plan, dirty map[InstanceKey]bool, stats *PlanStats) (*LBSolution, error) {
	c := p.c
	// Without previous instance loads (first compile, a plan restored
	// from the journal) nothing can be carried.
	full := p.plan == nil || p.plan.InstanceLoads == nil ||
		p.opts.DirtyThreshold < 0 ||
		float64(len(dirty)) > p.opts.threshold()*float64(len(plan.Order))

	if !full && len(dirty) == 0 {
		// Nothing re-enters the LP: carry the previous solution through,
		// dropping entries whose instances disappeared.
		plan.Weights, plan.InstanceLoads = p.carryForward(plan, dirty)
		plan.Lambda = p.plan.Lambda
		return nil, nil
	}

	if full {
		sol, err := c.solveChainLP(orderedInstances(plan, nil), nil, p.basis)
		if err != nil {
			return nil, err
		}
		plan.Weights, plan.InstanceLoads = sol.Weights, sol.InstanceLoads
		plan.Lambda = sol.Lambda
		stats.FullSolve, stats.Solved = true, true
		return sol, nil
	}

	// Scoped solve: clean instances keep their weights and charge their
	// previous expected loads as base capacity consumption, summed in
	// canonical instance order so equal inputs give bit-equal plans.
	carriedW, carriedLoads := p.carryForward(plan, dirty)
	base := make(map[topo.NodeID]float64)
	for _, k := range plan.Order {
		for x, l := range carriedLoads[k] {
			base[x] += l
		}
	}
	sol, err := c.solveChainLP(orderedInstances(plan, dirty), base, nil)
	if err != nil {
		return nil, err
	}
	for k, loads := range sol.InstanceLoads {
		carriedLoads[k] = loads
	}
	sol.Weights, sol.InstanceLoads = mergeWeights(carriedW, sol.Weights), carriedLoads
	plan.Weights, plan.InstanceLoads = sol.Weights, sol.InstanceLoads
	plan.Lambda = sol.Lambda
	stats.Solved = true
	return sol, nil
}

// carryForward extracts the previous plan's weights and instance loads
// for every clean instance that still exists in the new plan.
func (p *Pipeline) carryForward(plan *Plan, dirty map[InstanceKey]bool) (weightPlan, map[InstanceKey]map[topo.NodeID]float64) {
	keep := make(map[InstanceKey]bool, len(plan.Instances))
	for k := range plan.Instances {
		if !dirty[k] {
			keep[k] = true
		}
	}
	w := make(weightPlan)
	for node, byKey := range p.plan.Weights {
		for k, vec := range byKey {
			ik := InstanceKey{PolicyID: k.PolicyID, SrcSubnet: k.SrcSubnet, DstSubnet: k.DstSubnet}
			if !keep[ik] {
				continue
			}
			m := w[node]
			if m == nil {
				m = make(map[enforce.WeightKey][]float64)
				w[node] = m
			}
			m[k] = vec
		}
	}
	loads := make(map[InstanceKey]map[topo.NodeID]float64, len(keep))
	for k := range keep {
		if l, ok := p.plan.InstanceLoads[k]; ok {
			loads[k] = l
		}
	}
	return w, loads
}

// mergeWeights folds the scoped solution's vectors over the carried plan.
func mergeWeights(carried, solved weightPlan) weightPlan {
	out := carried
	if out == nil {
		out = make(weightPlan)
	}
	for node, byKey := range solved {
		m := out[node]
		if m == nil {
			m = make(map[enforce.WeightKey][]float64)
			out[node] = m
		}
		for k, vec := range byKey {
			m[k] = vec
		}
	}
	return out
}

// orderedInstances returns the plan's instances in canonical order,
// restricted to the given key set (nil selects all).
func orderedInstances(plan *Plan, keys map[InstanceKey]bool) []*ChainInstance {
	out := make([]*ChainInstance, 0, len(plan.Order))
	for _, k := range plan.Order {
		if keys == nil || keys[k] {
			out = append(out, plan.Instances[k])
		}
	}
	return out
}
