package verify

import (
	"fmt"
	"math"
	"sort"

	"sdme/internal/enforce"
	"sdme/internal/policy"
	"sdme/internal/topo"
)

// CheckCoverage verifies that every function referenced by a policy
// chain has at least one candidate at every proxy and middlebox that
// does not implement the function itself. A node with an empty (or
// missing) candidate list for a needed function blackholes every flow
// whose chain reaches it (§III-B: the node has no m_x^e to tunnel to).
func CheckCoverage(p Plan) []Violation {
	funcs, repPolicy := p.chainFuncs()
	var out []Violation
	for _, x := range p.planNodes() {
		cands := p.Candidates[x]
		for _, e := range funcs {
			if p.implements(x, e) {
				continue
			}
			if len(cands[e]) > 0 {
				continue
			}
			out = append(out, Violation{
				Invariant: InvCoverage,
				Severity:  SevError,
				Node:      x,
				PolicyID:  repPolicy[e],
				Func:      e,
				Detail:    fmt.Sprintf("no live candidate middlebox for %v; flows needing it are blackholed at this node", e),
			})
		}
	}
	return out
}

// CheckHotPotato verifies that every candidate list is exactly the
// distance-sorted prefix of the live providers of its function, as the
// controller's Dijkstra assignment computes it: the hot-potato target
// (index 0) is the closest live provider, subsequent entries follow in
// non-decreasing distance with the deterministic lower-ID tie-break, no
// list exceeds the configured k, and every member actually provides the
// function. Recomputing the ranking from AllPairs makes this an
// independent check of the controller's cached output, not a replay of
// its cache.
func CheckHotPotato(p Plan) []Violation {
	var out []Violation
	for _, x := range sortedOwners(p.Candidates) {
		byFunc := p.Candidates[x]
		for _, e := range sortedFuncs(byFunc) {
			got := byFunc[e]
			if len(got) == 0 {
				continue // coverage's finding, not ours
			}
			// Membership first: a non-provider in the list would make the
			// prefix comparison below fail with a confusing message.
			providers := make(map[topo.NodeID]bool)
			for _, m := range p.Dep.Providers(e) {
				providers[m] = true
			}
			bad := false
			for i, m := range got {
				if !providers[m] {
					out = append(out, Violation{
						Invariant: InvHotPotato,
						Severity:  SevError,
						Node:      x,
						PolicyID:  -1,
						Func:      e,
						Detail:    fmt.Sprintf("candidate[%d] = node %d does not implement %v", i, int(m), e),
					})
					bad = true
				}
				if m == x {
					out = append(out, Violation{
						Invariant: InvHotPotato,
						Severity:  SevError,
						Node:      x,
						PolicyID:  -1,
						Func:      e,
						Detail:    fmt.Sprintf("candidate[%d] is the node itself", i),
					})
					bad = true
				}
			}
			if bad {
				continue
			}
			if p.K != nil {
				if k := p.K(e); k > 0 && len(got) > k {
					out = append(out, Violation{
						Invariant: InvHotPotato,
						Severity:  SevError,
						Node:      x,
						PolicyID:  -1,
						Func:      e,
						Detail:    fmt.Sprintf("candidate set has %d members, configured k is %d", len(got), k),
					})
				}
			}
			want := p.AP.KClosest(x, p.liveProviders(e), len(got))
			for i := range got {
				if i >= len(want) {
					out = append(out, Violation{
						Invariant: InvHotPotato,
						Severity:  SevError,
						Node:      x,
						PolicyID:  -1,
						Func:      e,
						Detail:    fmt.Sprintf("candidate[%d] = node %d but only %d live providers are reachable", i, int(got[i]), len(want)),
					})
					break
				}
				if got[i] != want[i] {
					out = append(out, Violation{
						Invariant: InvHotPotato,
						Severity:  SevError,
						Node:      x,
						PolicyID:  -1,
						Func:      e,
						Detail: fmt.Sprintf("candidate[%d] = node %d (d=%.0f), want node %d (d=%.0f): list is not the distance-sorted prefix of live providers",
							i, int(got[i]), p.AP.Dist(x, got[i]), int(want[i]), p.AP.Dist(x, want[i])),
					})
					break
				}
			}
		}
	}
	return out
}

// CheckFailed verifies that no middlebox marked failed appears in any
// candidate set — the exact staleness a crash between MarkFailed and the
// repair Recompute would leave behind.
func CheckFailed(p Plan) []Violation {
	failed := p.failedSet()
	if len(failed) == 0 {
		return nil
	}
	var out []Violation
	for _, x := range sortedOwners(p.Candidates) {
		byFunc := p.Candidates[x]
		for _, e := range sortedFuncs(byFunc) {
			for i, m := range byFunc[e] {
				if failed[m] {
					out = append(out, Violation{
						Invariant: InvFailed,
						Severity:  SevError,
						Node:      x,
						PolicyID:  -1,
						Func:      e,
						Detail:    fmt.Sprintf("candidate[%d] = node %d is marked failed", i, int(m)),
					})
				}
			}
		}
	}
	return out
}

// CheckWeights verifies the LB weight vectors in Plan.Weights: each
// vector must address an existing candidate list, be parallel to it
// (same length — the dataplane indexes candidates by weight position),
// and contain only finite, non-negative entries. An all-zero vector is a
// warning: enforce.pickWeighted silently degrades it to uniform
// selection, which is safe but defeats the LP. With RequireNormalized
// the entries must additionally sum to 1±Tol.
func CheckWeights(p Plan) []Violation {
	tol := p.tol()
	var out []Violation
	owners := make([]topo.NodeID, 0, len(p.Weights))
	for id := range p.Weights {
		owners = append(owners, id)
	}
	sort.Slice(owners, func(i, j int) bool { return owners[i] < owners[j] })
	for _, x := range owners {
		keys := make([]enforce.WeightKey, 0, len(p.Weights[x]))
		for k := range p.Weights[x] {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return lessWeightKey(keys[i], keys[j]) })
		for _, k := range keys {
			vec := p.Weights[x][k]
			cands, ok := p.Candidates[x][k.Func]
			if !ok {
				out = append(out, Violation{
					Invariant: InvWeights,
					Severity:  SevError,
					Node:      x,
					PolicyID:  k.PolicyID,
					Func:      k.Func,
					Detail:    fmt.Sprintf("weight vector for %v but the node has no candidate set for it", k.Func),
				})
				continue
			}
			if len(vec) != len(cands) {
				out = append(out, Violation{
					Invariant: InvWeights,
					Severity:  SevError,
					Node:      x,
					PolicyID:  k.PolicyID,
					Func:      k.Func,
					Detail:    fmt.Sprintf("weight vector has %d entries, candidate set has %d: positions would misalign", len(vec), len(cands)),
				})
				continue
			}
			sum, bad := 0.0, false
			for i, w := range vec {
				switch {
				case math.IsNaN(w) || math.IsInf(w, 0):
					out = append(out, Violation{
						Invariant: InvWeights,
						Severity:  SevError,
						Node:      x,
						PolicyID:  k.PolicyID,
						Func:      k.Func,
						Detail:    fmt.Sprintf("weight[%d] = %v is not finite", i, w),
					})
					bad = true
				case w < -tol:
					out = append(out, Violation{
						Invariant: InvWeights,
						Severity:  SevError,
						Node:      x,
						PolicyID:  k.PolicyID,
						Func:      k.Func,
						Detail:    fmt.Sprintf("weight[%d] = %v is negative", i, w),
					})
					bad = true
				default:
					sum += w
				}
			}
			if bad {
				continue
			}
			if p.RequireNormalized {
				if math.Abs(sum-1) > tol {
					out = append(out, Violation{
						Invariant: InvWeights,
						Severity:  SevError,
						Node:      x,
						PolicyID:  k.PolicyID,
						Func:      k.Func,
						Detail:    fmt.Sprintf("weights sum to %v, want 1±%v", sum, tol),
					})
				}
			} else if sum <= tol {
				out = append(out, Violation{
					Invariant: InvWeights,
					Severity:  SevWarning,
					Node:      x,
					PolicyID:  k.PolicyID,
					Func:      k.Func,
					Detail:    "all-zero weight vector degrades to uniform selection",
				})
			}
		}
	}
	return out
}

// sortedOwners returns the candidate-map keys in ascending order.
func sortedOwners(m map[topo.NodeID]map[policy.FuncType][]topo.NodeID) []topo.NodeID {
	out := make([]topo.NodeID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// sortedFuncs returns a candidate set's function keys in ascending order.
func sortedFuncs(m map[policy.FuncType][]topo.NodeID) []policy.FuncType {
	out := make([]policy.FuncType, 0, len(m))
	for e := range m {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// lessWeightKey orders weight keys deterministically.
func lessWeightKey(a, b enforce.WeightKey) bool {
	if a.PolicyID != b.PolicyID {
		return a.PolicyID < b.PolicyID
	}
	if a.Func != b.Func {
		return a.Func < b.Func
	}
	if a.SrcSubnet != b.SrcSubnet {
		return a.SrcSubnet < b.SrcSubnet
	}
	return a.DstSubnet < b.DstSubnet
}
