package verify

import (
	"fmt"
	"sort"

	"sdme/internal/enforce"
	"sdme/internal/topo"
)

// Cross-node plan consistency. The plan invariants in checks.go judge one
// plan against the topology; this check judges the FLEET against itself:
// after an epoch-fenced rollout, every node must be running the same plan
// generation. A node on epoch N−1 while its peers run N mixes two plans
// in one network — a flow can be classified under the old policy table at
// its proxy and load-balanced under the new weights at a middlebox, which
// is exactly the window the two-phase prepare/commit protocol exists to
// close. The conformance tests snapshot each node's running config plus
// its agent's last-applied epoch and feed them here.

// InvConsistency is the cross-node same-generation invariant.
const InvConsistency Invariant = "plan-consistency"

// NodePlanView is one node's running plan as observed from the node
// itself: the epoch its management agent last applied and the
// generation-defining scalars of its installed configuration. Candidate
// sets and weights legitimately differ per node (M_x^e depends on x), so
// they are judged by the per-plan invariants, not here.
type NodePlanView struct {
	// Epoch is the node's last applied configuration epoch.
	Epoch uint64
	// Term is the leadership term of the controller replica that pushed
	// the node's plan (0 in single-controller deployments, where term
	// fencing is not in play). A fleet split across terms ran plans from
	// two different leaders — the split-brain residue term fencing
	// exists to prevent.
	Term uint64
	// Strategy, HashSeed, LabelSwitching mirror enforce.Config.
	Strategy       enforce.Strategy
	HashSeed       uint64
	LabelSwitching bool
	// PolicyDigest summarizes the node's policy table; two nodes with
	// different digests classify the same packet differently.
	PolicyDigest string
}

// ViewOf builds a NodePlanView from an agent epoch and a node's Config().
func ViewOf(epoch uint64, cfg enforce.Config) NodePlanView {
	return NodePlanView{
		Epoch:          epoch,
		Strategy:       cfg.Strategy,
		HashSeed:       cfg.HashSeed,
		LabelSwitching: cfg.LabelSwitching,
		PolicyDigest:   policyDigest(cfg),
	}
}

// policyDigest renders the policy table deterministically: sorted by ID,
// each policy's identity, priority, descriptor, and chain.
func policyDigest(cfg enforce.Config) string {
	ps := make([]int, 0, len(cfg.Policies))
	byID := make(map[int]string, len(cfg.Policies))
	for _, p := range cfg.Policies {
		ps = append(ps, p.ID)
		byID[p.ID] = fmt.Sprintf("%d|%d|%v|%v;", p.ID, p.Prio, p.Desc, p.Actions)
	}
	sort.Ints(ps)
	out := ""
	for _, id := range ps {
		out += byID[id]
	}
	return out
}

// CheckConsistency verifies that every node runs the same plan
// generation. The reference is the view with the HIGHEST epoch (the
// newest committed generation — during a partial rollout the laggards are
// the anomaly, not the leaders); every disagreement with it on epoch,
// strategy, hash seed, label-switching mode, or policy table is an error
// attributed to the disagreeing node. An empty or single-node fleet is
// trivially consistent.
func CheckConsistency(views map[topo.NodeID]NodePlanView) []Violation {
	if len(views) < 2 {
		return nil
	}
	ids := make([]topo.NodeID, 0, len(views))
	for id := range views {
		ids = append(ids, id)
	}
	ids = topo.SortedIDs(ids)

	// The reference is the highest (Term, Epoch) view: a newer leadership
	// term outranks any epoch count from a deposed leader (the new leader
	// resumes epochs past the old high-water, but a stale replica's view
	// must never be the reference even if its epoch number races ahead).
	refID := ids[0]
	for _, id := range ids[1:] {
		v, r := views[id], views[refID]
		if v.Term > r.Term || (v.Term == r.Term && v.Epoch > r.Epoch) {
			refID = id
		}
	}
	ref := views[refID]

	var out []Violation
	for _, id := range ids {
		if id == refID {
			continue
		}
		v := views[id]
		if v.Term != ref.Term {
			out = append(out, Violation{
				Invariant: InvConsistency,
				Severity:  SevError,
				Node:      id,
				PolicyID:  -1,
				Detail: fmt.Sprintf("runs a plan from leadership term %d while node %d runs term %d's; the fleet spans two leaders",
					v.Term, int(refID), ref.Term),
			})
			// Epoch and scalar comparisons across terms are meaningless:
			// each leader numbers and plans independently.
			continue
		}
		if v.Epoch != ref.Epoch {
			out = append(out, Violation{
				Invariant: InvConsistency,
				Severity:  SevError,
				Node:      id,
				PolicyID:  -1,
				Detail: fmt.Sprintf("runs plan epoch %d while node %d runs %d; two generations are mixed",
					v.Epoch, int(refID), ref.Epoch),
			})
			// Scalar mismatches below would be redundant noise: a node one
			// epoch behind differs in content by construction.
			continue
		}
		if v.Strategy != ref.Strategy {
			out = append(out, Violation{
				Invariant: InvConsistency, Severity: SevError, Node: id, PolicyID: -1,
				Detail: fmt.Sprintf("strategy %v disagrees with node %d's %v at the same epoch %d",
					v.Strategy, int(refID), ref.Strategy, ref.Epoch),
			})
		}
		if v.HashSeed != ref.HashSeed {
			out = append(out, Violation{
				Invariant: InvConsistency, Severity: SevError, Node: id, PolicyID: -1,
				Detail: fmt.Sprintf("hash seed %d disagrees with node %d's %d at the same epoch %d",
					v.HashSeed, int(refID), ref.HashSeed, ref.Epoch),
			})
		}
		if v.LabelSwitching != ref.LabelSwitching {
			out = append(out, Violation{
				Invariant: InvConsistency, Severity: SevError, Node: id, PolicyID: -1,
				Detail: fmt.Sprintf("label switching %v disagrees with node %d's %v at the same epoch %d",
					v.LabelSwitching, int(refID), ref.LabelSwitching, ref.Epoch),
			})
		}
		if v.PolicyDigest != ref.PolicyDigest {
			out = append(out, Violation{
				Invariant: InvConsistency, Severity: SevError, Node: id, PolicyID: -1,
				Detail: fmt.Sprintf("policy table differs from node %d's at the same epoch %d",
					int(refID), ref.Epoch),
			})
		}
	}
	return out
}
