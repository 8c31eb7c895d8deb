package mgmt

import (
	"fmt"
	"math"

	"sdme/internal/enforce"
	"sdme/internal/policy"
)

// This file is the trust boundary of the management channel. Every DTO
// that arrives off the wire must pass its Validate method before any
// field reaches enforcement state (Node.Install, ApplyDelta) or the
// controller's solver inputs — the wiretaint analyzer (internal/lint)
// enforces that rule at build time, and these are the sanitizers it
// recognizes. Validation is structural: range checks that hold for any
// well-formed peer, not policy decisions. A frame that fails here is
// refused with an error Ack (configs) or dropped with a closed
// connection (handshakes and reports); it must never be half-applied.

// maxNameLen bounds the free-form address a not-leader bounce carries.
const maxNameLen = 256

// Validate checks a configuration push for structural sanity: strategy
// in range, prefix bits within IPv4 width, port ranges ordered, action
// lists and function codes passing policy.CheckActions, TTLs
// non-negative, weights finite and non-negative.
func (d *ConfigDTO) Validate() error {
	switch enforce.Strategy(d.Strategy) {
	case enforce.HotPotato, enforce.Random, enforce.LoadBalanced:
	default:
		return fmt.Errorf("mgmt: config seq %d: unknown strategy %d", d.Seq, d.Strategy)
	}
	if d.FlowTTL < 0 || d.LabelTTL < 0 {
		return fmt.Errorf("mgmt: config seq %d: negative TTL (flow %d, label %d)", d.Seq, d.FlowTTL, d.LabelTTL)
	}
	for i, p := range d.Policies {
		if err := p.validate(); err != nil {
			return fmt.Errorf("mgmt: config seq %d: policy[%d]: %w", d.Seq, i, err)
		}
	}
	for i, c := range d.Candidates {
		if err := policy.CheckActions([]int{c.Func}); err != nil {
			return fmt.Errorf("mgmt: config seq %d: candidates[%d]: %w", d.Seq, i, err)
		}
		for _, n := range c.Nodes {
			if n < 0 {
				return fmt.Errorf("mgmt: config seq %d: candidates[%d]: negative node id %d", d.Seq, i, n)
			}
		}
	}
	for i, w := range d.Weights {
		if err := w.validate(); err != nil {
			return fmt.Errorf("mgmt: config seq %d: weights[%d]: %w", d.Seq, i, err)
		}
	}
	return nil
}

// Validate checks a configuration delta for the same structural sanity a
// full config gets: upserted policies well-formed, candidate and removal
// identifiers in range, weight vectors finite and non-negative. An agent
// must pass it before any field reaches Node.ApplyDelta.
func (d *DeltaDTO) Validate() error {
	for i, p := range d.Upserts {
		if err := p.validate(); err != nil {
			return fmt.Errorf("mgmt: delta seq %d: upsert[%d]: %w", d.Seq, i, err)
		}
	}
	for i, id := range d.Removes {
		if id < 0 {
			return fmt.Errorf("mgmt: delta seq %d: removes[%d]: negative policy id %d", d.Seq, i, id)
		}
	}
	for i, c := range d.SetCandidates {
		if err := policy.CheckActions([]int{c.Func}); err != nil {
			return fmt.Errorf("mgmt: delta seq %d: set_candidates[%d]: %w", d.Seq, i, err)
		}
		for _, n := range c.Nodes {
			if n < 0 {
				return fmt.Errorf("mgmt: delta seq %d: set_candidates[%d]: negative node id %d", d.Seq, i, n)
			}
		}
	}
	for i, f := range d.DropCandidates {
		if err := policy.CheckActions([]int{f}); err != nil {
			return fmt.Errorf("mgmt: delta seq %d: drop_candidates[%d]: %w", d.Seq, i, err)
		}
	}
	for i, w := range d.SetWeights {
		if err := w.validate(); err != nil {
			return fmt.Errorf("mgmt: delta seq %d: set_weights[%d]: %w", d.Seq, i, err)
		}
	}
	for i, k := range d.DropWeights {
		if k.PolicyID < 0 || policy.CheckActions([]int{k.Func}) != nil || k.SrcSubnet < 0 || k.DstSubnet < 0 {
			return fmt.Errorf("mgmt: delta seq %d: drop_weights[%d]: identifier out of range", d.Seq, i)
		}
	}
	return nil
}

func (p *PolicyDTO) validate() error {
	if p.ID < 0 {
		return fmt.Errorf("negative policy id %d", p.ID)
	}
	if p.SrcBits < 0 || p.SrcBits > 32 || p.DstBits < 0 || p.DstBits > 32 {
		return fmt.Errorf("prefix bits out of range (src /%d, dst /%d)", p.SrcBits, p.DstBits)
	}
	if p.SrcPortLo > p.SrcPortHi {
		return fmt.Errorf("inverted src port range [%d,%d]", p.SrcPortLo, p.SrcPortHi)
	}
	if p.DstPortLo > p.DstPortHi {
		return fmt.Errorf("inverted dst port range [%d,%d]", p.DstPortLo, p.DstPortHi)
	}
	if len(p.Actions) == 0 {
		return fmt.Errorf("policy %d has no actions", p.ID)
	}
	if err := policy.CheckActions(p.Actions); err != nil {
		return fmt.Errorf("policy %d: %w", p.ID, err)
	}
	return nil
}

func (w *WeightDTO) validate() error {
	if err := policy.CheckActions([]int{w.Func}); err != nil {
		return err
	}
	if len(w.Weights) == 0 {
		return fmt.Errorf("policy %d: empty weight vector", w.PolicyID)
	}
	for _, v := range w.Weights {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("policy %d: weight %v is not a finite non-negative number", w.PolicyID, v)
		}
	}
	return nil
}

// Validate checks a two-phase commit/abort decision: it must name a real
// epoch, or the agent cannot match it against its staged plan.
func (c *Commit) Validate() error {
	if c.Epoch == 0 {
		return fmt.Errorf("mgmt: commit seq %d: zero epoch", c.Seq)
	}
	return nil
}

// Validate checks an agent handshake.
func (h *Hello) Validate() error {
	if h.NodeID < 0 {
		return fmt.Errorf("mgmt: hello: negative node id %d", h.NodeID)
	}
	return nil
}

// Validate checks a lease bid: replica identity must be a real index and
// the term positive (term 0 is the unfenced single-controller sentinel,
// never a ballot).
func (r *LeaseRequest) Validate() error {
	if r.Candidate < 0 {
		return fmt.Errorf("mgmt: lease request: negative candidate %d", r.Candidate)
	}
	if r.Term == 0 {
		return fmt.Errorf("mgmt: lease request: zero term")
	}
	if r.JournalBytes < 0 {
		return fmt.Errorf("mgmt: lease request: negative journal length %d", r.JournalBytes)
	}
	return nil
}

// Validate checks a lease grant.
func (g *LeaseGrant) Validate() error {
	if g.Voter < 0 {
		return fmt.Errorf("mgmt: lease grant: negative voter %d", g.Voter)
	}
	if g.Term == 0 {
		return fmt.Errorf("mgmt: lease grant: zero term")
	}
	return nil
}

// Validate checks a heartbeat.
func (h *Heartbeat) Validate() error {
	if h.Leader < 0 {
		return fmt.Errorf("mgmt: heartbeat: negative replica %d", h.Leader)
	}
	if h.Term == 0 {
		return fmt.Errorf("mgmt: heartbeat: zero term")
	}
	if h.JournalBytes < 0 {
		return fmt.Errorf("mgmt: heartbeat: negative journal length %d", h.JournalBytes)
	}
	return nil
}

// Validate checks a redirect before the agent re-dials the named address.
func (n *NotLeader) Validate() error {
	if len(n.LeaderAddr) > maxNameLen {
		return fmt.Errorf("mgmt: not-leader: address longer than %d bytes", maxNameLen)
	}
	return nil
}

// Validate checks a replication frame batch's envelope fields; the
// per-record length+CRC validation happens in the standby decoder, which
// never applies anything past a bad checksum.
func (f *JournalFrame) Validate() error {
	if f.Leader < 0 {
		return fmt.Errorf("mgmt: journal frame: negative leader %d", f.Leader)
	}
	if f.Term == 0 {
		return fmt.Errorf("mgmt: journal frame: zero term")
	}
	if f.Offset < 0 {
		return fmt.Errorf("mgmt: journal frame: negative offset %d", f.Offset)
	}
	return nil
}

// Validate checks a catch-up request.
func (f *JournalFetch) Validate() error {
	if f.Standby < 0 {
		return fmt.Errorf("mgmt: journal fetch: negative standby %d", f.Standby)
	}
	if f.From < 0 {
		return fmt.Errorf("mgmt: journal fetch: negative offset %d", f.From)
	}
	return nil
}

// Validate checks a replication ack.
func (a *JournalAck) Validate() error {
	if a.Standby < 0 {
		return fmt.Errorf("mgmt: journal ack: negative standby %d", a.Standby)
	}
	if a.Bytes < 0 {
		return fmt.Errorf("mgmt: journal ack: negative journal length %d", a.Bytes)
	}
	return nil
}

// Validate checks a proxy measurement report before it reaches the
// controller's solver input (§III-C): packet counts must be
// non-negative or the rebalance divides by garbage.
func (m *Measure) Validate() error {
	if m.NodeID < 0 {
		return fmt.Errorf("mgmt: measure: negative node id %d", m.NodeID)
	}
	for i, r := range m.Rows {
		if r.Packets < 0 {
			return fmt.Errorf("mgmt: measure row %d: negative packet count %d", i, r.Packets)
		}
		if r.PolicyID < 0 || r.SrcSubnet < 0 || r.DstSubnet < 0 {
			return fmt.Errorf("mgmt: measure row %d: negative identifier", i)
		}
	}
	return nil
}
