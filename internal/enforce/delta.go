package enforce

import (
	"sort"
	"sync/atomic"

	"sdme/internal/flowtable"
	"sdme/internal/policy"
	"sdme/internal/topo"
)

// ConfigDelta is an incremental edit to a node's Config: the unit the
// staged compilation pipeline pushes when only part of the plan changed.
// Applying a delta on top of the base configuration it was diffed against
// yields exactly the full configuration the controller would otherwise
// have pushed — ApplyToConfig is pure, and Node.ApplyDelta installs its
// result.
type ConfigDelta struct {
	// Upserts are policies to add or replace (matched by ID). They carry
	// the global priority, so insertion position is implied.
	Upserts []*policy.Policy
	// Removes are policy IDs to delete.
	Removes []int
	// SetCandidates replaces individual candidate lists; DropCandidates
	// deletes the listed functions' lists outright.
	SetCandidates  map[policy.FuncType][]topo.NodeID
	DropCandidates []policy.FuncType
	// SetWeights replaces individual weight vectors; DropWeights deletes
	// the listed keys.
	SetWeights  map[WeightKey][]float64
	DropWeights []WeightKey
}

// Empty reports whether the delta carries no edits.
func (d *ConfigDelta) Empty() bool {
	return len(d.Upserts) == 0 && len(d.Removes) == 0 &&
		len(d.SetCandidates) == 0 && len(d.DropCandidates) == 0 &&
		len(d.SetWeights) == 0 && len(d.DropWeights) == 0
}

// Entries counts the edit entries the delta carries (policies, candidate
// lists and weight vectors touched) — the per-node delta-size unit the
// churn metrics report.
func (d *ConfigDelta) Entries() int {
	return len(d.Upserts) + len(d.Removes) +
		len(d.SetCandidates) + len(d.DropCandidates) +
		len(d.SetWeights) + len(d.DropWeights)
}

// ApplyToConfig returns the configuration that results from applying the
// delta on top of base. Base is not mutated: every container the delta
// touches is copied first. Policy order is maintained by (Prio, ID),
// which Install relies on for first-match classification.
func (d *ConfigDelta) ApplyToConfig(base Config) Config {
	out := base

	if len(d.Upserts) > 0 || len(d.Removes) > 0 {
		gone := make(map[int]bool, len(d.Removes)+len(d.Upserts))
		for _, id := range d.Removes {
			gone[id] = true
		}
		for _, p := range d.Upserts {
			gone[p.ID] = true
		}
		merged := make([]*policy.Policy, 0, len(base.Policies)+len(d.Upserts))
		for _, p := range base.Policies {
			if !gone[p.ID] {
				merged = append(merged, p)
			}
		}
		merged = append(merged, d.Upserts...)
		sort.SliceStable(merged, func(i, j int) bool { return matchOrder(merged[i], merged[j]) })
		out.Policies = merged
	}

	if len(d.SetCandidates) > 0 || len(d.DropCandidates) > 0 {
		cands := make(map[policy.FuncType][]topo.NodeID, len(base.Candidates)+len(d.SetCandidates))
		for f, c := range base.Candidates {
			cands[f] = c
		}
		for _, f := range d.DropCandidates {
			delete(cands, f)
		}
		for f, c := range d.SetCandidates {
			cands[f] = c
		}
		out.Candidates = cands
	}

	if len(d.SetWeights) > 0 || len(d.DropWeights) > 0 {
		w := make(map[WeightKey][]float64, len(base.Weights)+len(d.SetWeights))
		for k, v := range base.Weights {
			w[k] = v
		}
		for _, k := range d.DropWeights {
			delete(w, k)
		}
		for k, v := range d.SetWeights {
			w[k] = v
		}
		if len(w) == 0 {
			// A full build leaves Weights nil when the solver produced no
			// vectors for the node; match it so delta-applied and freshly
			// built configurations stay identical.
			w = nil
		}
		out.Weights = w
	}
	return out
}

// ApplyDelta installs the configuration the delta yields on top of the
// installed one: a delta is only a shorter way to name it.
func (n *Node) ApplyDelta(d ConfigDelta) error { return n.Install(d.ApplyToConfig(n.cfg)) }

// DiffPolicies is the policy half of a configuration diff, the one the
// controller's plan diff and Install share: the policies of cur that are
// new or changed against old (changed: another rule under the same ID, by
// identity hash), sorted by (Prio, ID); the IDs of old's policies cur
// lacks, sorted; and how many of the upserts are new.
func DiffPolicies(old, cur []*policy.Policy) (upserts []*policy.Policy, removes []int, added int) {
	oldByID := make(map[int]*policy.Policy, len(old))
	for _, p := range old {
		oldByID[p.ID] = p
	}
	curIDs := make(map[int]bool, len(cur))
	for _, p := range cur {
		curIDs[p.ID] = true
		if prev, ok := oldByID[p.ID]; !ok {
			upserts = append(upserts, p)
			added++
		} else if prev != p && prev.Hash() != p.Hash() {
			upserts = append(upserts, p)
		}
	}
	for _, p := range old {
		if !curIDs[p.ID] {
			removes = append(removes, p.ID)
		}
	}
	sort.Slice(upserts, func(i, j int) bool { return matchOrder(upserts[i], upserts[j]) })
	sort.Ints(removes)
	return upserts, removes, added
}

// matchOrder is first-match classification order: by priority, then ID.
func matchOrder(a, b *policy.Policy) bool {
	if a.Prio != b.Prio {
		return a.Prio < b.Prio
	}
	return a.ID < b.ID
}

// purge drops the soft state a configuration change made wrong, judged
// against the configuration it replaced (n.cfg is already the new one;
// upserts and removes are the DiffPolicies of the two policy lists):
//
//   - flow/label entries of removed or replaced policies (their cached
//     action chains are stale);
//   - when a policy is inserted or replaced, null entries and entries of
//     policies with a priority below it in match order (numerically above
//     its Prio), because the new rule may now shadow them;
//   - pinned entries whose next hop dropped out of every candidate list,
//     through InvalidateProvider.
//
// Pure weight changes purge nothing (the §III-C periodic rebalance).
func (n *Node) purge(old Config, upserts []*policy.Policy, removes []int) {
	if len(upserts) > 0 || len(removes) > 0 {
		// The soft-state entries reference policies by their pre-edit
		// identity, so judge them against the OLD install.
		changed := make(map[int]bool, len(removes)+len(upserts))
		for _, id := range removes {
			changed[id] = true
		}
		minUpsertPrio := -1
		for _, p := range upserts {
			changed[p.ID] = true
			if minUpsertPrio < 0 || p.Prio < minUpsertPrio {
				minUpsertPrio = p.Prio
			}
		}
		oldPrio := make(map[int]int, len(old.Policies))
		for _, p := range old.Policies {
			oldPrio[p.ID] = p.Prio
		}
		shadowed := func(policyID int) bool {
			if minUpsertPrio < 0 {
				return false
			}
			prio, ok := oldPrio[policyID]
			return !ok || prio > minUpsertPrio
		}
		total := n.flows.InvalidateIf(func(e *flowtable.Entry) bool {
			if e.Null {
				return minUpsertPrio >= 0
			}
			return changed[e.PolicyID] || shadowed(e.PolicyID)
		})
		if n.labels != nil {
			total += n.labels.InvalidateIf(func(e *flowtable.LabelEntry) bool {
				return changed[e.PolicyID] || shadowed(e.PolicyID)
			})
		}
		atomic.AddInt64(&n.Counters.Invalidated, int64(total))
	}

	// Providers that dropped out of every candidate list can no longer be
	// selected; InvalidateProvider consults the new lists.
	still := make(map[topo.NodeID]bool)
	for _, cands := range n.cfg.Candidates {
		for _, mb := range cands {
			still[mb] = true
		}
	}
	for _, cands := range old.Candidates {
		for _, mb := range cands {
			if !still[mb] {
				still[mb] = true // once per provider
				n.InvalidateProvider(mb)
			}
		}
	}
}
