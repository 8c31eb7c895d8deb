package mgmt

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"sdme/internal/enforce"
	"sdme/internal/metrics"
	"sdme/internal/topo"
)

// Delta rollout (controller pipeline Stage 3 on the wire). A rollout
// carries only what changed since each node's current epoch; the agent
// merges it into the configuration it applied and stages the result, and
// Node.Install's one rule keeps the soft state of flows the change does not
// touch. Safety rests on two rules:
//
//  1. Base fencing. Every delta names the epoch it was diffed against
//     (BaseEpoch). An agent on any other epoch refuses it at prepare
//     time, and the server stages the merged full configuration at the
//     same epoch instead — a delta is never merged into a base it does not
//     match.
//  2. Merge-at-store. At the commit decision the server records, per
//     node, the delta merged into the node's previous latest FULL
//     configuration. The reconnect catch-up path therefore always
//     re-pushes full configs: a node that was down through any number of
//     delta epochs converges in one push, never by replaying a delta
//     chain.

// ErrCommitStraggler marks a rollout that was decided (every node staged
// it, the plan is recorded as every node's latest) but that some node has
// not confirmed applying: the fleet moves to the new plan and the
// straggler heals through the reconnect re-push. Any other rollout error
// means no node applied anything.
var ErrCommitStraggler = errors.New("commit straggler")

// PushAllDelta2PC is the one way a plan reaches the fleet: it rolls one
// plan generation out as per-node deltas under the epoch-fenced two-phase
// protocol, under a single fresh epoch, which it returns. Every node
// stages its delta (or, where no delta is possible, its full fallback
// configuration), and only when all have staged does the commit flip them
// atomically. fallback is REQUIRED for nodes the server has no recorded
// base for (a first rollout is a delta against the empty base, carried
// entirely by fallback); the merged configuration is substituted
// automatically when an agent refuses its delta's base epoch at prepare
// time. Nodes absent from deltas are not touched; a one-node batch is a
// probe.
//
// On a prepare failure the batch is aborted (best-effort) and the first
// failed prepare's error returned: no node applied anything. After the
// commit decision, commit failures are returned wrapping
// ErrCommitStraggler, but the plan is already recorded as every node's
// latest — stragglers heal via reconnect re-push.
func (s *Server) PushAllDelta2PC(deltas map[topo.NodeID]enforce.ConfigDelta, fallback map[topo.NodeID]ConfigDTO, pol RetryPolicy) (uint64, error) {
	pol = pol.fill()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, fmt.Errorf("mgmt: 2pc delta push: %w", ErrServerClosed)
	}
	if s.notLeader {
		s.mu.Unlock()
		return 0, fmt.Errorf("mgmt: 2pc delta push: %w", ErrNotLeader)
	}
	s.epoch++
	epoch := s.epoch
	term := s.term

	// Decide per node, under the lock, whether a delta can apply (a full
	// base is recorded) and compute the configuration the node runs after
	// the commit either way: the delta merged into the recorded base, or
	// the caller's fallback, decoded once. It is stored as the node's latest
	// at the commit decision. A full ConfigDTO exists only for what goes on
	// the wire: the fallback as given, or one built on a base refusal.
	type nodePlan struct {
		delta *DeltaDTO // nil: no recorded base, full carries the plan
		full  ConfigDTO
		next  nodeConfig
	}
	plans := make(map[topo.NodeID]*nodePlan, len(deltas))
	for node, d := range deltas {
		next := nodeConfig{epoch: epoch, term: term}
		if base, ok := s.latest[node]; ok {
			ddto := DeltaToDTO(0, d)
			ddto.Epoch, ddto.Term, ddto.BaseEpoch = epoch, term, base.epoch
			next.cfg = d.ApplyToConfig(base.cfg)
			plans[node] = &nodePlan{delta: &ddto, next: next}
			continue
		}
		fb, ok := fallback[node]
		if !ok {
			s.mu.Unlock()
			return 0, fmt.Errorf("mgmt: 2pc delta push to %v: %w", node, ErrNoBase)
		}
		fb.Epoch, fb.Term = epoch, term
		next.cfg = ConfigFromDTO(fb)
		plans[node] = &nodePlan{full: fb, next: next}
	}
	s.mu.Unlock()

	nodes := make([]topo.NodeID, 0, len(plans))
	for id := range plans {
		nodes = append(nodes, id)
	}
	nodes = topo.SortedIDs(nodes)

	// Phase 1: stage the delta (or fallback) everywhere. A base-epoch
	// refusal retries the prepare with the full merged configuration —
	// the plan content is identical, only the transport form degrades.
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, node := range nodes {
		np := plans[node]
		wg.Add(1)
		go func(i int, node topo.NodeID, np *nodePlan) {
			defer wg.Done()
			s.smInc(func(m *serverMetrics) *metrics.Counter { return m.prepares })
			if np.delta != nil {
				s.smInc(func(m *serverMetrics) *metrics.Counter { return m.deltaPushes })
				ddto := *np.delta
				errs[i] = s.callRetry(node, TypePrepareDelta, func(seq uint64) interface{} {
					ddto.Seq = seq
					return ddto
				}, pol, 0)
				if !IsBaseMismatch(errs[i]) {
					return
				}
				s.smInc(func(m *serverMetrics) *metrics.Counter { return m.deltaFallbacks })
				np.full = np.next.wire()
			}
			dto := np.full
			errs[i] = s.callRetry(node, TypePrepare, func(seq uint64) interface{} {
				dto.Seq = seq
				return dto
			}, pol, 0)
		}(i, node, np)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			continue
		}
		// Prepare quorum failed: roll the staged plans back. Best-effort
		// single attempts — an unreachable agent discards its stale stage
		// anyway when a newer epoch arrives.
		s.smInc(func(m *serverMetrics) *metrics.Counter { return m.rollbacks })
		abortPol := RetryPolicy{Attempts: 1, PerAttempt: pol.PerAttempt}
		for _, node := range nodes {
			_ = s.callRetry(node, TypeAbort, func(seq uint64) interface{} {
				return Commit{Seq: seq, Epoch: epoch, Term: term}
			}, abortPol, 0)
		}
		return epoch, fmt.Errorf("mgmt: 2pc delta prepare failed at node %v (rolled back): %w", nodes[i], err)
	}

	// Decision: commit. Record the MERGED FULL configuration as every
	// node's latest first — reconnect catch-up must never replay deltas.
	s.mu.Lock()
	for _, node := range nodes {
		s.latest[node] = plans[node].next
	}
	s.mu.Unlock()

	// Phase 2: flip everywhere.
	for i, node := range nodes {
		node := node
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.smInc(func(m *serverMetrics) *metrics.Counter { return m.commits })
			errs[i] = s.callRetry(node, TypeCommit, func(seq uint64) interface{} {
				return Commit{Seq: seq, Epoch: epoch, Term: term}
			}, pol, epoch)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return epoch, fmt.Errorf("mgmt: 2pc delta %w %v (will heal via re-push): %w", ErrCommitStraggler, nodes[i], err)
		}
	}
	return epoch, nil
}

// handlePrepareDelta stages the configuration a delta yields on top of the
// one the agent applied. The base epoch is checked here, once: a mismatch
// fails the prepare immediately and the server substitutes a full prepare,
// so by commit time the fleet holds plans that can all flip. The staged
// configuration is the complete target, so nothing is re-checked at
// commit.
func (a *Agent) handlePrepareDelta(data []byte) {
	var dto DeltaDTO
	if err := json.Unmarshal(data, &dto); err != nil {
		_ = a.write(TypeAck, Ack{Seq: dto.Seq, Error: "bad prepare-delta: " + err.Error(), Prepared: true})
		return
	}
	if !a.admit(dto.Seq, dto.Epoch, dto.Term, dto.Validate(), true) {
		return
	}
	a.planMu.Lock()
	cur, base := a.epoch.Load(), a.applied
	a.planMu.Unlock()
	if cur != dto.BaseEpoch {
		_ = a.write(TypeAck, Ack{Seq: dto.Seq, Epoch: dto.Epoch,
			Error: fmt.Sprintf("%s: applied epoch %d, delta base %d", RefuseDeltaBase, cur, dto.BaseEpoch), Prepared: true})
		return
	}
	d := DeltaFromDTO(dto)
	a.stage(dto.Seq, &stagedPlan{epoch: dto.Epoch, cfg: d.ApplyToConfig(base)})
}
