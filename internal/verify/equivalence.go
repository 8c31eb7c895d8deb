package verify

import (
	"fmt"
	"sort"

	"sdme/internal/enforce"
	"sdme/internal/policy"
	"sdme/internal/topo"
)

// InvEquivalence is the delta≡full invariant: applying per-node
// ConfigDeltas on top of the previous configuration must yield exactly
// the configuration a from-scratch build of the new plan produces.
const InvEquivalence Invariant = "delta-equivalence"

// CheckDeltaEquivalence compares a delta-applied configuration set
// against a from-scratch build of the same plan and reports every
// divergence: differing node sets, policy subsets, candidate lists,
// weight vectors, or strategy/feature flags. An empty result is the
// delta≡full guarantee the incremental pipeline relies on.
func CheckDeltaEquivalence(applied, full map[topo.NodeID]enforce.Config) []Violation {
	var out []Violation
	report := func(node topo.NodeID, policyID int, f policy.FuncType, format string, args ...interface{}) {
		out = append(out, Violation{
			Invariant: InvEquivalence,
			Severity:  SevError,
			Node:      node,
			PolicyID:  policyID,
			Func:      f,
			Detail:    fmt.Sprintf(format, args...),
		})
	}

	ids := make([]topo.NodeID, 0, len(applied)+len(full))
	seen := make(map[topo.NodeID]bool, len(applied)+len(full))
	for id := range applied {
		ids = append(ids, id)
		seen[id] = true
	}
	for id := range full {
		if !seen[id] {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	for _, id := range ids {
		a, aok := applied[id]
		b, bok := full[id]
		if !aok || !bok {
			report(id, -1, 0, "node present in applied=%v full=%v", aok, bok)
			continue
		}
		if fa, fb := configFlags(a), configFlags(b); fa != fb {
			report(id, -1, 0, "strategy/flags differ: applied=%+v full=%+v", fa, fb)
		}
		comparePolicies(id, a.Policies, b.Policies, report)
		compareCandidates(id, a.Candidates, b.Candidates, report)
		compareWeights(id, a.Weights, b.Weights, report)
	}
	return out
}

type flagTuple struct {
	Strategy       enforce.Strategy
	HashSeed       uint64
	LabelSwitching bool
	FlowTTL        int64
	LabelTTL       int64
}

func configFlags(c enforce.Config) flagTuple {
	return flagTuple{c.Strategy, c.HashSeed, c.LabelSwitching, c.FlowTTL, c.LabelTTL}
}

type reportFunc func(node topo.NodeID, policyID int, f policy.FuncType, format string, args ...interface{})

func comparePolicies(id topo.NodeID, a, b []*policy.Policy, report reportFunc) {
	if len(a) != len(b) {
		report(id, -1, 0, "policy count differs: applied=%d full=%d", len(a), len(b))
		return
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Hash() != b[i].Hash() {
			report(id, b[i].ID, 0, "policy slot %d differs: applied=%v full=%v", i, a[i], b[i])
		}
	}
}

func compareCandidates(id topo.NodeID, a, b map[policy.FuncType][]topo.NodeID, report reportFunc) {
	for e, bl := range b {
		al, ok := a[e]
		if !ok {
			report(id, -1, e, "candidate list missing from applied config")
			continue
		}
		if !sameNodeList(al, bl) {
			report(id, -1, e, "candidate list differs: applied=%v full=%v", al, bl)
		}
	}
	for e := range a {
		if _, ok := b[e]; !ok {
			report(id, -1, e, "candidate list extra in applied config")
		}
	}
}

func compareWeights(id topo.NodeID, a, b map[enforce.WeightKey][]float64, report reportFunc) {
	for k, bv := range b {
		av, ok := a[k]
		if !ok {
			report(id, k.PolicyID, k.Func, "weight vector missing from applied config (key %+v)", k)
			continue
		}
		if !sameFloatList(av, bv) {
			report(id, k.PolicyID, k.Func, "weight vector differs (key %+v): applied=%v full=%v", k, av, bv)
		}
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			report(id, k.PolicyID, k.Func, "weight vector extra in applied config (key %+v)", k)
		}
	}
}

func sameNodeList(a, b []topo.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameFloatList(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
