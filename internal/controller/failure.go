package controller

import (
	"fmt"
	"slices"

	"sdme/internal/enforce"
	"sdme/internal/policy"
	"sdme/internal/topo"
)

// ErrNoLiveProvider is the sentinel every NoLiveProviderError matches
// via errors.Is: some network function has no live middlebox left, so
// enforcement of that function is impossible until one recovers.
// Recovery loops branch on it — it means "degrade and keep watching",
// not "abort". It aliases enforce.ErrNoLiveProvider so the dataplane's
// local fast-failover exhaustion (enforce.NoLiveCandidateError) and the
// controller's planning failure match the same sentinel.
var ErrNoLiveProvider = enforce.ErrNoLiveProvider

// NoLiveProviderError reports which function lost its last provider.
type NoLiveProviderError struct {
	// Func is the network function with no live middlebox.
	Func policy.FuncType
}

func (e *NoLiveProviderError) Error() string {
	return fmt.Sprintf("controller: no live middlebox implements %v", e.Func)
}

// Is makes errors.Is(err, ErrNoLiveProvider) match.
func (e *NoLiveProviderError) Is(target error) bool { return target == ErrNoLiveProvider }

// Failure handling — the "dependable" in the paper's title. The
// controller monitors middlebox liveness (in a real deployment via the
// same channel it uses for measurement collection) and, on failure,
// recompiles the plan without the failed boxes: MarkFailed + NodeChanged +
// Recompute, whose delta carries the repaired candidate sets (and drops
// the weight vectors that were parallel to the old ones). Routing is
// untouched: the underlying network never knew about the middleboxes in
// the first place, which is precisely the architecture's resilience
// argument.

// MarkFailed records a middlebox as down (or up again). It affects the
// next Recompute (pair it with Pipeline.NodeChanged); it does not touch
// already-configured nodes.
func (c *Controller) MarkFailed(mb topo.NodeID, down bool) error {
	if !slices.Contains(c.dep.MBNodes, mb) {
		return fmt.Errorf("controller: node %v is not a middlebox", mb)
	}
	if c.failed == nil {
		c.failed = make(map[topo.NodeID]bool)
	}
	if down {
		c.failed[mb] = true
	} else {
		delete(c.failed, mb)
	}
	// Invalidate cached assignments; they are recomputed on demand.
	c.candidates = nil
	// Write-ahead: the failed set must be durable before any repair plan
	// derived from it reaches a node (journal.go).
	return c.journalFailed()
}

// Failed returns the currently failed middleboxes in ID order.
func (c *Controller) Failed() []topo.NodeID {
	return sortedNodeKeys(c.failed)
}

// liveProviders filters M^e down to live middleboxes.
func (c *Controller) liveProviders(e policy.FuncType) []topo.NodeID {
	all := c.dep.Providers(e)
	if len(c.failed) == 0 {
		return all
	}
	out := make([]topo.NodeID, 0, len(all))
	for _, id := range all {
		if !c.failed[id] {
			out = append(out, id)
		}
	}
	return out
}
