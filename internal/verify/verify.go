// Package verify statically checks a controller-computed enforcement
// plan before it is installed on any node. The controller's outputs —
// Dijkstra hot-potato assignments, candidate sets M_x^e, LP
// load-balancing weights, failure reassignments — are exactly the
// artifacts whose corruption silently breaks policy enforcement for an
// entire stub network, so they are verified as data rather than trusted
// as code.
//
// Five invariants are checked (see DESIGN.md, "Plan verification"):
//
//   - coverage: every function appearing in a policy chain has at least
//     one live candidate at every proxy and middlebox that does not
//     implement the function itself;
//   - loop: the tunnel overlay induced by each chain (x → m_x^e → …) is
//     free of cycles, and no chosen provider implements an *earlier*
//     function of the same chain (the dataplane infers chain position
//     from the earliest implemented function, so such a provider would
//     re-run a completed stage — a forwarding loop);
//   - hp-optimality: each candidate list is exactly the distance-sorted
//     prefix of the live providers (closest first, deterministic
//     tie-break), no longer than the configured k;
//   - lb-weights: every weight vector is finite, non-negative, parallel
//     to its candidate list, and not all zero;
//   - failed-candidate: no failed middlebox appears in any candidate set.
//
// One check judges a fleet rather than a plan: CheckDeltaEquivalence
// (delta-equivalence) compares the configurations the nodes applied with
// the plan's own, node by node. There is no fleet-wide "one epoch, one
// policy table" check: a delta rollout leaves the nodes it does not touch
// on their older epoch, and each proxy holds its own policy subset P_x.
//
// All checks are pure reads: nothing in this package mutates the
// deployment, the routing state or the candidate sets, and no check
// needs a constructed enforce.Node — plans are verifiable before any
// node is built from them.
package verify

import (
	"fmt"
	"sort"
	"strings"

	"sdme/internal/enforce"
	"sdme/internal/policy"
	"sdme/internal/route"
	"sdme/internal/topo"
)

// Severity grades a violation.
type Severity int

// Severity levels. Errors make a plan unsafe to install; warnings mark
// degraded-but-functional configurations (e.g. an all-zero weight vector
// that silently falls back to uniform selection).
const (
	SevWarning Severity = iota + 1
	SevError
)

// String renders the severity.
func (s Severity) String() string {
	switch s {
	case SevWarning:
		return "warning"
	case SevError:
		return "error"
	default:
		return fmt.Sprintf("severity(%d)", int(s))
	}
}

// Invariant names one of the checked plan invariants.
type Invariant string

// The checked invariants.
const (
	InvCoverage  Invariant = "coverage"
	InvLoop      Invariant = "loop"
	InvHotPotato Invariant = "hp-optimality"
	InvWeights   Invariant = "lb-weights"
	InvFailed    Invariant = "failed-candidate"
)

// Violation is one invariant failure, attributed to a node and (when the
// failure is policy-specific) a policy.
type Violation struct {
	Invariant Invariant
	Severity  Severity
	// Node is the node owning the offending candidate set or weight
	// vector; topo.InvalidNode for plan-global findings.
	Node topo.NodeID
	// PolicyID is the affected policy, or -1 when the finding is not
	// tied to one policy.
	PolicyID int
	// Func is the chain function involved (zero when not applicable).
	Func policy.FuncType
	// Detail is a human-readable explanation.
	Detail string
}

// String renders the violation on one line.
func (v Violation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s", v.Severity, v.Invariant)
	if v.Node != topo.InvalidNode {
		fmt.Fprintf(&b, " node %d", int(v.Node))
	}
	if v.PolicyID >= 0 {
		fmt.Fprintf(&b, " policy %d", v.PolicyID)
	}
	if v.Func != 0 {
		fmt.Fprintf(&b, " func %v", v.Func)
	}
	b.WriteString(": ")
	b.WriteString(v.Detail)
	return b.String()
}

// Plan bundles everything needed to verify a controller plan. Dep, AP,
// Policies and Candidates are required; the rest is optional.
type Plan struct {
	// Dep is the deployment the plan targets.
	Dep *enforce.Deployment
	// AP is the all-pairs shortest-path state the controller used. It
	// must be built over the same graph with the same transit filter, or
	// hp-optimality checks will disagree with the controller for
	// spurious reasons.
	AP *route.AllPairs
	// Policies is the global policy table.
	Policies *policy.Table
	// Candidates is the plan under test: M_x^e per node.
	Candidates map[topo.NodeID]map[policy.FuncType][]topo.NodeID
	// Weights optionally carries an LB solution's per-node weight
	// vectors (controller.LBSolution.Weights has this exact type).
	Weights map[topo.NodeID]map[enforce.WeightKey][]float64
	// Failed lists middleboxes currently considered down.
	Failed []topo.NodeID
	// K returns the configured candidate-set cap per function; nil
	// skips the prefix-size check.
	K func(policy.FuncType) int
}

// failedSet returns Failed as a set.
func (p *Plan) failedSet() map[topo.NodeID]bool {
	if len(p.Failed) == 0 {
		return nil
	}
	out := make(map[topo.NodeID]bool, len(p.Failed))
	for _, id := range p.Failed {
		out[id] = true
	}
	return out
}

// liveProviders returns the providers of e minus the failed set, the
// same population the controller assigns from.
func (p *Plan) liveProviders(e policy.FuncType) []topo.NodeID {
	all := p.Dep.Providers(e)
	failed := p.failedSet()
	if len(failed) == 0 {
		return all
	}
	out := make([]topo.NodeID, 0, len(all))
	for _, id := range all {
		if !failed[id] {
			out = append(out, id)
		}
	}
	return out
}

// implements reports whether node id implements function e.
func (p *Plan) implements(id topo.NodeID, e policy.FuncType) bool {
	for _, f := range p.Dep.FuncsOf(id) {
		if f == e {
			return true
		}
	}
	return false
}

// chainFuncs returns the functions referenced by any non-permit policy,
// sorted, each paired with the lowest policy ID referencing it.
func (p *Plan) chainFuncs() ([]policy.FuncType, map[policy.FuncType]int) {
	byFunc := make(map[policy.FuncType]int)
	for _, pol := range p.Policies.All() {
		for _, e := range pol.Actions {
			if id, ok := byFunc[e]; !ok || pol.ID < id {
				byFunc[e] = pol.ID
			}
		}
	}
	funcs := make([]policy.FuncType, 0, len(byFunc))
	for e := range byFunc {
		funcs = append(funcs, e)
	}
	sort.Slice(funcs, func(i, j int) bool { return funcs[i] < funcs[j] })
	return funcs, byFunc
}

// planNodes returns every proxy and middlebox, proxies first, each group
// in deployment order.
func (p *Plan) planNodes() []topo.NodeID {
	out := make([]topo.NodeID, 0, len(p.Dep.ProxyNodes)+len(p.Dep.MBNodes))
	out = append(out, p.Dep.ProxyNodes...)
	out = append(out, p.Dep.MBNodes...)
	return out
}

// Check runs every invariant and returns all violations, deterministic
// in content and order. An empty result means the plan is safe to
// install (warnings included: none were found).
func Check(p Plan) []Violation {
	var out []Violation
	out = append(out, CheckCoverage(p)...)
	out = append(out, CheckLoops(p)...)
	out = append(out, CheckHotPotato(p)...)
	out = append(out, CheckFailed(p)...)
	if p.Weights != nil {
		out = append(out, CheckWeights(p)...)
	}
	return out
}

// Error wraps violations as an error; controller entry points return it
// when Options.Verify is set and a plan fails verification.
type Error struct {
	Violations []Violation
}

// Error renders a summary with every violation on its own line.
func (e *Error) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "verify: plan has %d violation(s):", len(e.Violations))
	for _, v := range e.Violations {
		b.WriteString("\n  ")
		b.WriteString(v.String())
	}
	return b.String()
}

// AsError converts violations to an *Error carrying the SevError subset,
// or nil when none of them is an error (warnings alone do not make a
// plan uninstallable).
func AsError(vs []Violation) error {
	var hard []Violation
	for _, v := range vs {
		if v.Severity >= SevError {
			hard = append(hard, v)
		}
	}
	if len(hard) == 0 {
		return nil
	}
	return &Error{Violations: hard}
}
