package controller

import (
	"sdme/internal/policy"
	"sdme/internal/topo"
	"sdme/internal/verify"
)

// Static plan verification (see internal/verify): with Options.Verify
// set, the pipeline refuses to diff or build any plan that fails the
// coverage / loop-freedom / hp-optimality / failed-candidate invariants,
// or whose weight vectors fail the lb-weights invariant. The checks
// recompute rankings independently from AllPairs, so they catch
// corruption of the controller's own cache, not only bad inputs.

// VerifyPlan statically checks a compiled plan: its candidate
// assignments and, when the plan has been solved, its weight vectors. It
// returns every violation found; an empty result means the plan upholds
// all invariants.
func (c *Controller) VerifyPlan(p *Plan) []verify.Violation {
	return verify.Check(c.verifyInput(p.Candidates, p.Weights))
}

// verifyInput assembles the verifier's view of a candidate snapshot.
func (c *Controller) verifyInput(candidates map[topo.NodeID]map[policy.FuncType][]topo.NodeID, weights weightPlan) verify.Plan {
	return verify.Plan{
		Dep:        c.dep,
		AP:         c.ap,
		Policies:   c.policies,
		Candidates: candidates,
		Weights:    weights,
		Failed:     c.Failed(),
		K:          c.kFor,
	}
}

// verifyPlanWith is the internal gate over a compiled plan's candidate
// snapshot: nil unless verification is enabled and finds hard
// violations, in which case it returns a *verify.Error.
func (c *Controller) verifyPlanWith(candidates map[topo.NodeID]map[policy.FuncType][]topo.NodeID, weights weightPlan) error {
	if !c.opts.Verify {
		return nil
	}
	return verify.AsError(verify.Check(c.verifyInput(candidates, weights)))
}

// verifyPlanScoped gates a scoped re-solve: the invariants are checked
// only for the dirty policy set (and the candidate lists / weight vectors
// those policies can exercise), which is what keeps incremental
// verification proportional to the change rather than the plan.
func (c *Controller) verifyPlanScoped(candidates map[topo.NodeID]map[policy.FuncType][]topo.NodeID, weights weightPlan, policyIDs map[int]bool) error {
	if !c.opts.Verify {
		return nil
	}
	return verify.AsError(verify.CheckScoped(c.verifyInput(candidates, weights), policyIDs))
}
