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
// applies it in place, preserving flowtable soft state for untouched
// flows. Safety rests on two rules:
//
//  1. Base fencing. Every delta names the epoch it was diffed against
//     (BaseEpoch). An agent on any other epoch refuses it at prepare
//     time, and the server stages the merged full configuration at the
//     same epoch instead — a delta is never applied to a base it does not
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
	// base is recorded) and precompute the merged full config either way:
	// it is stored as the node's latest at the commit decision and doubles
	// as the prepare fallback.
	type nodePlan struct {
		delta *DeltaDTO
		full  ConfigDTO
	}
	plans := make(map[topo.NodeID]*nodePlan, len(deltas))
	for node, d := range deltas {
		if base, ok := s.latest[node]; ok {
			ddto := DeltaToDTO(0, d)
			ddto.Epoch, ddto.Term, ddto.BaseEpoch = epoch, term, base.Epoch
			merged, err := mergeDelta(base, ddto)
			if err != nil {
				s.mu.Unlock()
				return 0, fmt.Errorf("mgmt: 2pc delta push: merge for %v: %w", node, err)
			}
			plans[node] = &nodePlan{delta: &ddto, full: merged}
			continue
		}
		fb, ok := fallback[node]
		if !ok {
			s.mu.Unlock()
			return 0, fmt.Errorf("mgmt: 2pc delta push to %v: %w", node, ErrNoBase)
		}
		fb.Epoch, fb.Term = epoch, term
		plans[node] = &nodePlan{full: fb}
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
				s.observePushBytes(TypePrepareDelta, *np.delta, true)
				ddto := *np.delta
				errs[i] = s.callRetry(node, TypePrepareDelta, func(seq uint64) interface{} {
					ddto.Seq = seq
					return ddto
				}, pol, 0)
				if !IsBaseMismatch(errs[i]) {
					return
				}
				s.smInc(func(m *serverMetrics) *metrics.Counter { return m.deltaFallbacks })
			}
			dto := np.full
			s.observePushBytes(TypePrepare, dto, false)
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
		s.latest[node] = plans[node].full
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

// mergeDelta computes the full configuration that base + delta yields,
// at the delta's epoch: what the node's latest becomes at the commit
// decision, and the prepare fallback when the agent refuses the delta.
func mergeDelta(base ConfigDTO, ddto DeltaDTO) (ConfigDTO, error) {
	cfg, err := ConfigFromDTO(base)
	if err != nil {
		return ConfigDTO{}, err
	}
	d := DeltaFromDTO(ddto)
	out := ConfigToDTO(0, d.ApplyToConfig(cfg))
	out.Epoch = ddto.Epoch
	out.Term = ddto.Term
	return out, nil
}

// handlePrepareDelta stages a delta without applying it. The base epoch
// is checked at stage time so a mismatch fails the prepare immediately
// and the server substitutes a full prepare — by commit time the fleet
// must already hold plans that can all flip.
func (a *Agent) handlePrepareDelta(data []byte) {
	var dto DeltaDTO
	if err := json.Unmarshal(data, &dto); err != nil {
		_ = a.write(TypeAck, Ack{Seq: dto.Seq, Error: "bad prepare-delta: " + err.Error(), Prepared: true})
		return
	}
	if !a.admit(dto.Seq, dto.Epoch, dto.Term, dto.Validate(), true) {
		return
	}
	if cur := a.epoch.Load(); cur != dto.BaseEpoch {
		_ = a.write(TypeAck, Ack{Seq: dto.Seq, Epoch: dto.Epoch,
			Error: fmt.Sprintf("%s: applied epoch %d, delta base %d", RefuseDeltaBase, cur, dto.BaseEpoch), Prepared: true})
		return
	}
	a.stage(dto.Seq, &stagedPlan{epoch: dto.Epoch, delta: &dto})
}

// applyDeltaDTO validates and applies a staged delta to the device at
// commit, returning an error string for the ack ("" on success) and
// advancing the applied epoch. The base check is repeated here because
// the staged copy crossed goroutines (and epochs may have advanced) since
// its prepare-time check.
func (a *Agent) applyDeltaDTO(dto DeltaDTO) string {
	if err := dto.Validate(); err != nil {
		return err.Error()
	}
	if cur := a.epoch.Load(); cur != dto.BaseEpoch {
		return fmt.Sprintf("%s: applied epoch %d, delta base %d", RefuseDeltaBase, cur, dto.BaseEpoch)
	}
	d := DeltaFromDTO(dto)
	errStr := ""
	applied := a.dev.Do(func(n *enforce.Node) {
		if err := n.ApplyDelta(d); err != nil {
			errStr = err.Error()
		}
	})
	if !applied {
		errStr = "device stopped"
	}
	if errStr == "" {
		a.applies.Add(1)
		a.deltaApplies.Add(1)
		if a.am != nil {
			a.am.applies.Inc()
			a.am.deltaApplies.Inc()
		}
		if dto.Epoch > a.epoch.Load() {
			a.epoch.Store(dto.Epoch)
		}
	}
	return errStr
}
