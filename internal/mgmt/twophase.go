package mgmt

import (
	"encoding/json"
	"fmt"

	"sdme/internal/enforce"
)

// Epoch-fenced two-phase rollout, agent side (the server side is
// PushAllDelta2PC). Configuring nodes one by one would let a crash (or a
// refusal) partway through a multi-node rollout leave some nodes on epoch
// N and others on N−1 — two plans mixed in one network, exactly the
// cross-node inconsistency verify.Consistency flags. So every node first
// STAGES the new plan (prepare), and only when all of them have staged it
// does the server tell them to atomically flip (commit). If any prepare
// fails after retries, the staged plans are discarded (abort) and no node
// ever ran the new epoch. Nodes that die between prepare and commit
// converge through the reconnect catch-up: the commit decision records
// the plan as each node's latest, so a rejoining agent is re-pushed the
// committed plan idempotently.

// stagedPlan is an agent's prepared-but-not-applied configuration: a
// full ConfigDTO from a TypePrepare, or a DeltaDTO from a
// TypePrepareDelta (delta non-nil wins).
type stagedPlan struct {
	epoch uint64
	dto   ConfigDTO
	delta *DeltaDTO
}

// handlePrepare validates and stages a full configuration without
// applying it.
func (a *Agent) handlePrepare(data []byte) {
	var dto ConfigDTO
	if err := json.Unmarshal(data, &dto); err != nil {
		_ = a.write(TypeAck, Ack{Seq: dto.Seq, Error: "bad prepare: " + err.Error(), Prepared: true})
		return
	}
	if a.admit(dto.Seq, dto.Epoch, dto.Term, dto.Validate(), true) {
		a.stage(dto.Seq, &stagedPlan{epoch: dto.Epoch, dto: dto})
	}
}

// handleCommit atomically applies the staged plan for the named epoch.
func (a *Agent) handleCommit(data []byte) {
	var cm Commit
	if err := json.Unmarshal(data, &cm); err != nil {
		_ = a.write(TypeAck, Ack{Seq: cm.Seq, Error: "bad commit: " + err.Error()})
		return
	}
	if err := cm.Validate(); err != nil {
		_ = a.write(TypeAck, Ack{Seq: cm.Seq, Error: err.Error()})
		return
	}
	// Same fence as prepare: a deposed leader's commit decision is void.
	if reason := a.fenceTerm(cm.Term); reason != "" {
		_ = a.write(TypeAck, Ack{Seq: cm.Seq, Epoch: cm.Epoch, Term: a.term.Load(), Error: reason})
		return
	}
	if cm.Epoch <= a.epoch.Load() {
		// Duplicate commit (retry crossing an earlier ack): idempotent.
		a.stale.Add(1)
		_ = a.write(TypeAck, Ack{Seq: cm.Seq, Epoch: cm.Epoch})
		return
	}
	a.stagedMu.Lock()
	st := a.staged
	if st != nil && st.epoch == cm.Epoch {
		a.staged = nil
	}
	a.stagedMu.Unlock()
	if st == nil || st.epoch != cm.Epoch {
		_ = a.write(TypeAck, Ack{Seq: cm.Seq, Epoch: cm.Epoch,
			Error: fmt.Sprintf("no staged plan for epoch %d", cm.Epoch)})
		return
	}
	// applyDTO / applyDeltaDTO re-validate before installing (defense in
	// depth at the wire trust boundary; the staged copy crossed goroutines
	// since its prepare-time check).
	var errStr string
	if st.delta != nil {
		errStr = a.applyDeltaDTO(*st.delta)
	} else {
		dto := st.dto
		dto.Seq = cm.Seq
		errStr = a.applyDTO(dto)
	}
	if errStr == "" {
		a.committed.Add(1)
		if a.am != nil {
			a.am.commits.Inc()
		}
	}
	_ = a.write(TypeAck, Ack{Seq: cm.Seq, Epoch: cm.Epoch, Error: errStr})
}

// handleAbort discards a staged plan; aborting an epoch that was never
// staged (or already superseded) acks successfully — abort is the
// "make sure it never runs" message, and it never ran.
func (a *Agent) handleAbort(data []byte) {
	var cm Commit
	if err := json.Unmarshal(data, &cm); err != nil {
		_ = a.write(TypeAck, Ack{Seq: cm.Seq, Error: "bad abort: " + err.Error()})
		return
	}
	if err := cm.Validate(); err != nil {
		_ = a.write(TypeAck, Ack{Seq: cm.Seq, Error: err.Error()})
		return
	}
	a.stagedMu.Lock()
	if a.staged != nil && a.staged.epoch == cm.Epoch {
		a.staged = nil
		a.aborted.Add(1)
		if a.am != nil {
			a.am.aborts.Inc()
		}
	}
	a.stagedMu.Unlock()
	_ = a.write(TypeAck, Ack{Seq: cm.Seq, Epoch: cm.Epoch})
}

// StagedEpoch returns the epoch of the currently staged (uncommitted)
// plan, 0 if none — test and conformance hook.
func (a *Agent) StagedEpoch() uint64 {
	a.stagedMu.Lock()
	defer a.stagedMu.Unlock()
	if a.staged == nil {
		return 0
	}
	return a.staged.epoch
}

// applyDTO validates and applies a configuration to the device, returning
// an error string for the ack ("" on success) and advancing the agent's
// applied epoch. Shared by the catch-up config path and the commit path.
func (a *Agent) applyDTO(dto ConfigDTO) string {
	if err := dto.Validate(); err != nil {
		return err.Error()
	}
	errStr := ""
	cfg, err := ConfigFromDTO(dto)
	if err != nil {
		errStr = err.Error()
	} else if !a.dev.Do(func(n *enforce.Node) {
		if ierr := n.Install(cfg); ierr != nil {
			errStr = ierr.Error()
		}
	}) {
		errStr = "device stopped"
	}
	if errStr == "" {
		a.applies.Add(1)
		if a.am != nil {
			a.am.applies.Inc()
		}
		if dto.Epoch > a.epoch.Load() {
			a.epoch.Store(dto.Epoch)
		}
	}
	return errStr
}
