package controller

import (
	"slices"

	"sdme/internal/enforce"
	"sdme/internal/mgmt"
	"sdme/internal/policy"
	"sdme/internal/topo"
)

// Stage 3 of the compilation pipeline: diff two compiled plans into
// per-node ConfigDeltas — the add/remove/reweight edit scripts the mgmt
// layer pushes instead of full configurations when little changed.

// DeltaStats sizes a plan diff in configuration entries (a policy, a
// candidate list, or a weight vector each count as one entry). Reweighted
// counts entries present in both plans with different content (a replaced
// policy, a changed candidate list, a changed weight vector).
type DeltaStats struct {
	Added, Removed, Reweighted int
	// Nodes counts nodes receiving a non-empty delta.
	Nodes int
}

// Total is the number of changed entries.
func (s DeltaStats) Total() int { return s.Added + s.Removed + s.Reweighted }

// DiffPlans computes the per-node configuration deltas that transform
// old's exported state into cur's, plus their aggregate size. Nodes whose
// configuration is unchanged are absent from the result. The Drop lists
// are sorted and everything else is a map or a sorted policy list, so
// equal diffs are deeply equal and encode to identical wire bytes. Work
// is skipped where the plans share structure: two plans carrying the same
// candidate map (one assignment) have no candidate changes, and a node
// whose policy list holds the same pointers has no policy changes.
func DiffPlans(old, cur *Plan) (map[topo.NodeID]enforce.ConfigDelta, DeltaStats) {
	if old == nil {
		old = &Plan{}
	}
	var stats DeltaStats
	out := make(map[topo.NodeID]enforce.ConfigDelta)
	sameCands := sameAssignment(old.Candidates, cur.Candidates)
	for id := range unionNodes(old, cur) {
		var d enforce.ConfigDelta
		diffPolicies(old.NodePolicies[id], cur.NodePolicies[id], &d, &stats)
		if !sameCands {
			diffCandidates(old.Candidates[id], cur.Candidates[id], &d, &stats)
		}
		diffWeights(old.Weights[id], cur.Weights[id], &d, &stats)
		if !d.Empty() {
			out[id] = d
			stats.Nodes++
		}
	}
	return out, stats
}

// unionNodes returns the set of nodes configured by either plan.
func unionNodes(old, cur *Plan) map[topo.NodeID]bool {
	seen := make(map[topo.NodeID]bool, len(cur.NodePolicies))
	for _, p := range [2]*Plan{old, cur} {
		for id := range p.NodePolicies {
			seen[id] = true
		}
		for id := range p.Candidates {
			seen[id] = true
		}
		for id := range p.Weights {
			seen[id] = true
		}
	}
	return seen
}

func diffPolicies(old, cur []*policy.Policy, d *enforce.ConfigDelta, stats *DeltaStats) {
	if slices.Equal(old, cur) {
		return
	}
	var added int
	d.Upserts, d.Removes, added = enforce.DiffPolicies(old, cur)
	stats.Added += added
	stats.Reweighted += len(d.Upserts) - added
	stats.Removed += len(d.Removes)
}

func diffCandidates(old, cur map[policy.FuncType][]topo.NodeID, d *enforce.ConfigDelta, stats *DeltaStats) {
	for e, list := range cur {
		prev, ok := old[e]
		if !ok {
			ensureSetCandidates(d)[e] = list
			stats.Added++
		} else if !slices.Equal(prev, list) {
			ensureSetCandidates(d)[e] = list
			stats.Reweighted++
		}
	}
	for e := range old {
		if _, ok := cur[e]; !ok {
			d.DropCandidates = append(d.DropCandidates, e)
			stats.Removed++
		}
	}
	slices.Sort(d.DropCandidates)
}

func diffWeights(old, cur map[enforce.WeightKey][]float64, d *enforce.ConfigDelta, stats *DeltaStats) {
	for k, vec := range cur {
		prev, ok := old[k]
		if !ok {
			ensureSetWeights(d)[k] = vec
			stats.Added++
		} else if !slices.Equal(prev, vec) {
			ensureSetWeights(d)[k] = vec
			stats.Reweighted++
		}
	}
	for k := range old {
		if _, ok := cur[k]; !ok {
			d.DropWeights = append(d.DropWeights, k)
			stats.Removed++
		}
	}
	if len(d.DropWeights) > 1 {
		mgmt.SortWeightKeys(d.DropWeights)
	}
}

func ensureSetCandidates(d *enforce.ConfigDelta) map[policy.FuncType][]topo.NodeID {
	if d.SetCandidates == nil {
		d.SetCandidates = make(map[policy.FuncType][]topo.NodeID)
	}
	return d.SetCandidates
}

func ensureSetWeights(d *enforce.ConfigDelta) map[enforce.WeightKey][]float64 {
	if d.SetWeights == nil {
		d.SetWeights = make(map[enforce.WeightKey][]float64)
	}
	return d.SetWeights
}

// sortedWeightKeys lists a weight map's keys in wire order.
func sortedWeightKeys(m map[enforce.WeightKey][]float64) []enforce.WeightKey {
	out := make([]enforce.WeightKey, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	mgmt.SortWeightKeys(out)
	return out
}
