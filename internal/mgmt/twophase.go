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

// stagedPlan is an agent's prepared-but-not-applied configuration, always
// the complete target: a TypePrepare's decoded configuration, or a
// TypePrepareDelta merged into the configuration the agent had applied
// when it staged it.
type stagedPlan struct {
	epoch uint64
	cfg   enforce.Config
}

// handlePrepare validates and stages a full configuration without
// applying it.
func (a *Agent) handlePrepare(data []byte) {
	var dto ConfigDTO
	if err := json.Unmarshal(data, &dto); err != nil {
		_ = a.write(TypeAck, Ack{Seq: dto.Seq, Error: "bad prepare: " + err.Error(), Prepared: true})
		return
	}
	if !a.admit(dto.Seq, dto.Epoch, dto.Term, dto.Validate(), true) {
		return
	}
	cfg, err := ConfigFromDTO(dto)
	if err != nil {
		_ = a.write(TypeAck, Ack{Seq: dto.Seq, Epoch: dto.Epoch, Error: err.Error(), Prepared: true})
		return
	}
	a.stage(dto.Seq, &stagedPlan{epoch: dto.Epoch, cfg: cfg})
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
		a.m.epochRejects.Inc()
		_ = a.write(TypeAck, Ack{Seq: cm.Seq, Epoch: cm.Epoch})
		return
	}
	a.planMu.Lock()
	st := a.staged
	if st != nil && st.epoch == cm.Epoch {
		a.staged = nil
	}
	a.planMu.Unlock()
	if st == nil || st.epoch != cm.Epoch {
		_ = a.write(TypeAck, Ack{Seq: cm.Seq, Epoch: cm.Epoch,
			Error: fmt.Sprintf("no staged plan for epoch %d", cm.Epoch)})
		return
	}
	// The staged plan is the whole target configuration, validated and
	// base-checked at prepare: whatever the device ran since, installing
	// it yields exactly the plan the server recorded for this epoch.
	errStr := a.install(st.epoch, st.cfg)
	if errStr == "" {
		a.m.commits.Inc()
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
	a.planMu.Lock()
	if a.staged != nil && a.staged.epoch == cm.Epoch {
		a.staged = nil
		a.m.aborts.Inc()
	}
	a.planMu.Unlock()
	_ = a.write(TypeAck, Ack{Seq: cm.Seq, Epoch: cm.Epoch})
}

// StagedEpoch returns the epoch of the currently staged (uncommitted)
// plan, 0 if none — test and conformance hook.
func (a *Agent) StagedEpoch() uint64 {
	a.planMu.Lock()
	defer a.planMu.Unlock()
	if a.staged == nil {
		return 0
	}
	return a.staged.epoch
}

// install is the agent's one way to change the device's configuration,
// shared by the catch-up config path and the commit path: Node.Install on
// the device goroutine, then, on success, cfg becomes the applied
// configuration at epoch. It returns an error string for the ack ("" on
// success).
func (a *Agent) install(epoch uint64, cfg enforce.Config) string {
	errStr := ""
	if !a.dev.Do(func(n *enforce.Node) {
		if err := n.Install(cfg); err != nil {
			errStr = err.Error()
		}
	}) {
		errStr = "device stopped"
	}
	if errStr != "" {
		return errStr
	}
	a.m.applies.Inc()
	a.planMu.Lock()
	a.applied = cfg
	if epoch > a.epoch.Load() {
		a.epoch.Store(epoch)
	}
	a.planMu.Unlock()
	return ""
}
