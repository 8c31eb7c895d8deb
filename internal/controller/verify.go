package controller

import (
	"sdme/internal/verify"
)

// Static plan verification (see internal/verify): with Options.Verify
// set, Recompute refuses to diff or journal any plan that fails the
// coverage / loop-freedom / hp-optimality / failed-candidate invariants,
// or whose weight vectors fail the lb-weights invariant, and
// RestoreFromJournal refuses to restore one. The checks recompute
// rankings independently from AllPairs, so they catch corruption of the
// controller's own cache, not only bad inputs.

// VerifyPlan statically checks a compiled plan: its candidate
// assignments and, when the plan has been solved, its weight vectors. It
// returns every violation found; an empty result means the plan upholds
// all invariants.
func (c *Controller) VerifyPlan(p *Plan) []verify.Violation {
	return verify.Check(verify.Plan{
		Dep:        c.dep,
		AP:         c.ap,
		Policies:   c.policies,
		Candidates: p.Candidates,
		Weights:    p.Weights,
		Failed:     c.Failed(),
		K:          c.kFor,
	})
}

// verifyPlan is the one check a plan passes before anything is derived
// from it: nil unless Options.Verify is set and the plan has hard
// violations, in which case it returns a *verify.Error listing them.
func (c *Controller) verifyPlan(p *Plan) error {
	if !c.opts.Verify {
		return nil
	}
	return verify.AsError(c.VerifyPlan(p))
}
