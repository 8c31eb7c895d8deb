package controller

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"sdme/internal/enforce"
	"sdme/internal/lp"
	"sdme/internal/policy"
	"sdme/internal/topo"
)

// LBSolution is the outcome of a load-balancing optimization: the optimal
// λ (maximum load factor), the per-node probabilistic forwarding weights
// to install, and the middlebox loads the LP expects those weights to
// produce.
type LBSolution struct {
	Lambda float64
	// Weights holds, per node, the weight vectors to install (parallel
	// to the node's candidate lists).
	Weights map[topo.NodeID]map[enforce.WeightKey][]float64
	// ExpectedLoads is the LP's per-middlebox load (same units as the
	// measurements, i.e. packets).
	ExpectedLoads map[topo.NodeID]float64
	// Vars / Constraints / Iterations describe the solved program, both
	// objectives; the Eq. (1) vs Eq. (2) ablation reports these and
	// SolveTime, the wall time spent building and solving it.
	Vars, Constraints, Iterations int
	SolveTime                     time.Duration
	// Start is the path the solve took: cold, warm from the basis of
	// the previous full solve, or a refused start (lp.Start).
	Start lp.Start
	// basis is the solved program's optimal basis, the next full
	// solve's start (Pipeline keeps it; nil when lp kept none).
	basis *lp.Basis
	// clockUS is SolveTime per the controller's clock (virtual under
	// the simulator), what MetricSolveUS records.
	clockUS int64
	// InstanceLoads attributes the expected load to the chain instance
	// producing it, so the incremental pipeline can carry unaffected
	// instances into later scoped solves as constant base loads.
	InstanceLoads map[InstanceKey]map[topo.NodeID]float64
}

// policyIndex maps policy ID -> policy for the global table.
func (c *Controller) policyIndex() map[int]*policy.Policy {
	out := make(map[int]*policy.Policy, c.policies.Len())
	for _, p := range c.policies.All() {
		out[p.ID] = p
	}
	return out
}

// wRef remembers which LP variables become which node's weight vector.
type wRef struct {
	owner topo.NodeID
	key   enforce.WeightKey
	vars  []int
}

// solveChainLP builds and solves the load-balancing program over the given
// chain instances, then extracts weights and expected loads. It is the
// bare solve: the pipeline verifies, journals and observes the merged
// plan.
//
// The optimization is lexicographic, mirroring the evenly spread
// solutions the paper reports: the first objective minimizes the maximum
// load factor λ (the paper's objective); the second balances within each
// middlebox type over the λ-optimal face — it minimizes Σ_f λ_f and
// maximizes Σ_f μ_f where λ_f/μ_f bound the load factors of function f's
// providers. A plain simplex vertex of the first objective may park some
// middleboxes at zero load while only the bottleneck type is actually
// constrained; the second objective removes both artifacts (cf. the
// tight per-type spreads of the paper's Table III). Both objectives share
// one program and one solve (lp.Problem.SetSecondObjective).
//
// base, when non-nil, carries constant per-middlebox load offsets: the
// expected loads of carried-forward instances that are NOT re-entering
// the LP. Their traffic still consumes capacity, so every capacity and
// spread constraint is shifted by the offsets, and reported loads include
// them.
//
// start, when non-nil, is the optimal basis of an earlier solve: the LP
// starts from it when the program has the same rows and terms and falls
// back to a cold solve otherwise (lp.Problem.SolveFrom).
func (c *Controller) solveChainLP(insts []*ChainInstance, base map[topo.NodeID]float64, start *lp.Basis) (*LBSolution, error) {
	t0, t0US := time.Now(), c.clockUS()
	sol, err := c.buildAndSolve(insts, base, start)
	if err != nil {
		return nil, err
	}
	sol.SolveTime, sol.clockUS = time.Since(t0), c.clockUS()-t0US
	return sol, nil
}

// buildAndSolve constructs the program and solves it. base shifts every
// load expression by constant carried-forward loads (see solveChainLP).
//
// Every middlebox has unit capacity C(x) = 1, as in the paper's
// evaluation: minimizing λ then minimizes the maximum load. λ is not
// capped at 1 — measured in packets, any real demand exceeds it.
func (c *Controller) buildAndSolve(insts []*ChainInstance, base map[topo.NodeID]float64, start *lp.Basis) (*LBSolution, error) {
	prob := lp.NewProblem()
	lam := prob.AddVar("lambda")
	prob.SetObjective(lam, 1)

	loadTerms := make(map[topo.NodeID][]lp.Term)
	instTerms := make(map[InstanceKey]map[topo.NodeID][]lp.Term, len(insts))
	var refs []wRef

	for _, inst := range insts {
		if err := c.buildChain(prob, inst, loadTerms, instTerms, &refs); err != nil {
			return nil, err
		}
	}

	// Middleboxes that can receive traffic. Those carrying only base load
	// still constrain λ and the per-type bounds, so a scoped solve can
	// never under-report the network-wide load factor.
	loaded := make(map[topo.NodeID]bool, len(loadTerms)+len(base))
	for x := range loadTerms {
		loaded[x] = true
	}
	for x := range base {
		loaded[x] = true
	}
	xs := sortedNodeKeys(loaded)

	// A chain instance of volume V and length L loads a middlebox with at
	// most V·L, so no load factor can exceed U.
	var vl, U float64
	for _, inst := range insts {
		for _, v := range inst.SrcVols {
			vl += float64(v) * float64(len(inst.Pol.Actions))
		}
	}
	for _, x := range xs {
		U = max(U, vl+base[x])
	}

	// The spread variables exist only for types with a loaded provider:
	// every one of them is then bounded by that provider's rows. Per type
	// f, μ_f is the minimum load factor and h_f = U − λ_f the headroom
	// under the maximum λ_f.
	headF := make(map[policy.FuncType]int)
	muF := make(map[policy.FuncType]int)
	for _, x := range xs {
		for _, f := range c.dep.FuncsOf(x) {
			if _, ok := headF[f]; ok {
				continue
			}
			headF[f] = prob.AddVar(fmt.Sprintf("headroom_%v", f))
			prob.SetSecondObjective(headF[f], -1)
			muF[f] = prob.AddVar(fmt.Sprintf("mu_%v", f))
			// The spread term carries a small weight so that raising a
			// type's minimum can never buy an increase of another type's
			// maximum — per-type maxima stay lexicographically first.
			prob.SetSecondObjective(muF[f], -0.01)
		}
	}

	// Capacity constraints: Σ load(x) + base(x) - λ <= 0 (the paper's
	// fifth/sixth constraint at C(x) = 1; base(x) is zero outside scoped
	// re-solves), and per implemented type f the bounds
	// μ_f <= load(x) + base(x) <= λ_f, written with non-negative
	// right-hand sides so that each starts basic on its slack instead of
	// needing an artificial: μ_f - load(x) <= base(x) and
	// load(x) + h_f <= U - base(x). The ceiling's slack is then also far
	// from zero, so it does not block the λ stage's pivots.
	for _, x := range xs {
		prob.AddConstraint(lp.Le, -base[x], append([]lp.Term{{Var: lam, Coef: -1}}, loadTerms[x]...)...)
		for _, f := range c.dep.FuncsOf(x) {
			prob.AddConstraint(lp.Le, U-base[x], append([]lp.Term{{Var: headF[f], Coef: 1}}, loadTerms[x]...)...)
			floor := []lp.Term{{Var: muF[f], Coef: 1}}
			for _, t := range loadTerms[x] {
				floor = append(floor, lp.Term{Var: t.Var, Coef: -t.Coef})
			}
			prob.AddConstraint(lp.Le, base[x], floor...)
		}
	}
	solved, err := prob.SolveFrom(start)
	if err != nil {
		return nil, err
	}
	c.observeLP(solved)
	if solved.Status != lp.Optimal {
		// λ is uncapped and every split variable free to take the whole
		// volume, so the program is always feasible and bounded.
		return nil, fmt.Errorf("controller: load-balancing LP %v (builder bug)", solved.Status)
	}

	out := &LBSolution{
		Lambda:        solved.Objective,
		ExpectedLoads: make(map[topo.NodeID]float64),
		Vars:          prob.NumVars(),
		Constraints:   prob.NumConstraints(),
		Iterations:    solved.Iterations,
		Start:         solved.Start,
		basis:         solved.Basis,
		InstanceLoads: make(map[InstanceKey]map[topo.NodeID]float64, len(insts)),
	}
	out.Weights = extractWeights(refs, solved.Value)
	for x, terms := range loadTerms {
		var total float64
		for _, t := range terms {
			total += t.Coef * solved.Value(t.Var)
		}
		out.ExpectedLoads[x] = total + base[x]
	}
	for x, b := range base {
		if _, ok := loadTerms[x]; !ok {
			out.ExpectedLoads[x] = b
		}
	}
	for key, perMB := range instTerms {
		loads := make(map[topo.NodeID]float64, len(perMB))
		for x, terms := range perMB {
			var total float64
			for _, t := range terms {
				total += t.Coef * solved.Value(t.Var)
			}
			loads[x] = total
		}
		out.InstanceLoads[key] = loads
	}
	return out, nil
}

// buildChain adds one chain instance's variables and conservation
// constraints to the program, extending loadTerms and refs. Each load
// term is also attributed to the instance in instTerms, which is how
// InstanceLoads (and with it, carried-forward base loads) are computed.
func (c *Controller) buildChain(prob *lp.Problem, inst *ChainInstance, loadTerms map[topo.NodeID][]lp.Term, instTerms map[InstanceKey]map[topo.NodeID][]lp.Term, refs *[]wRef) error {
	chain := inst.Pol.Actions
	if len(chain) == 0 {
		return nil
	}
	e1 := chain[0]
	addLoad := func(x topo.NodeID, terms ...lp.Term) {
		loadTerms[x] = append(loadTerms[x], terms...)
		m := instTerms[inst.Key]
		if m == nil {
			m = make(map[topo.NodeID][]lp.Term)
			instTerms[inst.Key] = m
		}
		m[x] = append(m[x], terms...)
	}

	// Stage 0: group sources by candidate tuple (exact reduction: members
	// of a group are interchangeable).
	type group struct {
		cands   []topo.NodeID
		vol     int64
		members []topo.NodeID
	}
	groups := make(map[string]*group)
	for _, s := range sortedNodeKeys(inst.SrcVols) {
		cands := c.candidates[s][e1]
		if len(cands) == 0 {
			return fmt.Errorf("controller: proxy %v has no candidates for %v", s, e1)
		}
		key := groupKey(cands)
		g := groups[key]
		if g == nil {
			g = &group{cands: cands}
			groups[key] = g
		}
		g.vol += inst.SrcVols[s]
		g.members = append(g.members, s)
	}
	gkeys := make([]string, 0, len(groups))
	for k := range groups {
		gkeys = append(gkeys, k)
	}
	sort.Strings(gkeys)

	inflow := make(map[topo.NodeID][]lp.Term)
	for _, gk := range gkeys {
		g := groups[gk]
		terms := make([]lp.Term, len(g.cands))
		vars := make([]int, len(g.cands))
		for j, y := range g.cands {
			// Split variables go unnamed: nothing reads the names, and
			// formatting hundreds per solve was a twentieth of it.
			v := prob.AddVar("")
			vars[j] = v
			terms[j] = lp.Term{Var: v, Coef: 1}
			inflow[y] = append(inflow[y], lp.Term{Var: v, Coef: 1})
		}
		prob.AddConstraint(lp.Eq, float64(g.vol), terms...)
		for _, member := range g.members {
			*refs = append(*refs, wRef{
				owner: member,
				key: enforce.WeightKey{
					PolicyID: inst.Pol.ID, Func: e1,
					SrcSubnet: inst.Key.SrcSubnet, DstSubnet: inst.Key.DstSubnet,
				},
				vars: vars,
			})
		}
	}

	// Middle stages: conservation at each provider, fan-out to the next
	// function's candidates.
	for i := 1; i < len(chain); i++ {
		eNext := chain[i]
		newInflow := make(map[topo.NodeID][]lp.Term)
		for _, x := range sortedNodeKeys(inflow) {
			addLoad(x, inflow[x]...)
			cands := c.candidates[x][eNext]
			if len(cands) == 0 {
				return fmt.Errorf("controller: middlebox %v has no candidates for %v", x, eNext)
			}
			cons := make([]lp.Term, 0, len(cands)+len(inflow[x]))
			vars := make([]int, len(cands))
			for j, y := range cands {
				v := prob.AddVar("")
				vars[j] = v
				cons = append(cons, lp.Term{Var: v, Coef: 1})
				newInflow[y] = append(newInflow[y], lp.Term{Var: v, Coef: 1})
			}
			for _, in := range inflow[x] {
				cons = append(cons, lp.Term{Var: in.Var, Coef: -in.Coef})
			}
			prob.AddConstraint(lp.Eq, 0, cons...)
			*refs = append(*refs, wRef{
				owner: x,
				key: enforce.WeightKey{
					PolicyID: inst.Pol.ID, Func: eNext,
					SrcSubnet: inst.Key.SrcSubnet, DstSubnet: inst.Key.DstSubnet,
				},
				vars: vars,
			})
		}
		inflow = newInflow
	}

	// Final stage: inflow at the chain's last providers feeds their load;
	// the onward traffic to destinations is the aggregated virtual sink
	// (exact for min-λ; see DESIGN.md).
	for _, x := range sortedNodeKeys(inflow) {
		addLoad(x, inflow[x]...)
	}
	return nil
}

// groupKey renders a candidate tuple as fmt.Sprint does ("[3 12]"), the
// key source groups are merged and ordered by.
func groupKey(cands []topo.NodeID) string {
	b := make([]byte, 0, 4*len(cands)+2)
	b = append(b, '[')
	for i, y := range cands {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(y), 10)
	}
	return string(append(b, ']'))
}

// extractWeights copies the solved LP variables into the per-node weight
// vectors to install, clamping simplex round-off.
func extractWeights(refs []wRef, value func(v int) float64) weightPlan {
	out := make(weightPlan)
	for _, r := range refs {
		w := make([]float64, len(r.vars))
		for i, v := range r.vars {
			w[i] = clampRoundOff(value(v))
		}
		m := out[r.owner]
		if m == nil {
			m = make(map[enforce.WeightKey][]float64)
			out[r.owner] = m
		}
		// Eq. (1) instances can hit the same (owner, key) from multiple
		// triples only if keys collide, which the subnet tags prevent;
		// Eq. (2) never revisits a key. Accumulate defensively anyway.
		if prev, ok := m[r.key]; ok {
			for i := range w {
				w[i] += prev[i]
			}
		}
		m[r.key] = w
	}
	return out
}

// clampRoundOff zeroes the ≈ −1e-9 values a simplex vertex can carry for
// a variable that is mathematically zero, −0 included: DiffPlans compares
// weights with == and sees no difference between −0 and 0, the JSON
// encodings differ, so a −0 would make two equal plans export differently.
// Anything more negative is a real violation and is left for plan
// verification (and the management channel's validation) to refuse.
func clampRoundOff(v float64) float64 {
	if v <= 0 && v > -1e-6 {
		return 0
	}
	return v
}

func sortedNodeKeys[V any](m map[topo.NodeID]V) []topo.NodeID {
	out := make([]topo.NodeID, 0, len(m))
	for x := range m {
		out = append(out, x)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
