// Package mgmt implements the management channel of the paper's
// architecture (§III-A): the centralized controller configures
// software-defined middleboxes and policy proxies over the network, and
// the proxies report their traffic measurements back (§III-C). Messages
// are length-prefixed JSON over TCP; agents embed in the live runtime's
// devices and apply configuration inside each device's own goroutine.
//
// This is the piece that makes the controller "software-defined" rather
// than in-process: the same enforce.Config that unit tests install
// directly travels here as a wire message.
package mgmt

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"sdme/internal/enforce"
	"sdme/internal/netaddr"
	"sdme/internal/policy"
	"sdme/internal/topo"
)

// maxFrame bounds a message frame (a Waxman-scale config with hundreds
// of policies fits comfortably).
const maxFrame = 16 << 20

// Envelope wraps every wire message with its type tag.
type Envelope struct {
	T    string          `json:"t"`
	Data json.RawMessage `json:"data"`
}

// Message type tags.
const (
	TypeHello = "hello"
	// TypeHelloAck confirms a HELLO: the server has registered this
	// connection as the node's current one. Agents block their handshake
	// on it, so "agent connected" implies "pushes route here" — without
	// it, a push racing a reconnect can land on the dying predecessor
	// connection.
	TypeHelloAck = "hello-ack"
	TypeConfig   = "config"
	TypeAck      = "ack"
	TypeMeasure  = "measure"
	// TypePrepare / TypeCommit / TypeAbort are the epoch-fenced two-phase
	// rollout (twophase.go): prepare carries a full ConfigDTO (the delta
	// rollout's fallback form) the agent stages
	// without applying; commit atomically flips the node to the staged
	// plan; abort discards it after a prepare-quorum failure.
	TypePrepare = "prepare"
	TypeCommit  = "commit"
	TypeAbort   = "abort"
	// TypePrepareDelta carries a DeltaDTO — the incremental pipeline's
	// per-node edit script — which the agent merges into the configuration
	// it applied and stages under the two-phase rollout like a full
	// prepare. Commit/abort reuse TypeCommit/TypeAbort unchanged.
	TypePrepareDelta = "prepare-delta"
	// TypeLeaseRequest / TypeLeaseGrant / TypeHeartbeat are the
	// controller-replica election protocol (internal/ha/election.go):
	// a candidate asks its peers for a term-scoped lease, peers grant at
	// most one lease per term, and the winner refreshes its leadership with
	// periodic heartbeats that double as replication progress reports.
	TypeLeaseRequest = "lease-request"
	TypeLeaseGrant   = "lease-grant"
	TypeHeartbeat    = "heartbeat"
	// TypeNotLeader is a standby's redirect: an agent that hellos a
	// non-leader replica is bounced here with the current leader's
	// management address, so it re-homes within one backoff cycle.
	TypeNotLeader = "not-leader"
	// TypeJournalFrame / TypeJournalFetch / TypeJournalAck stream the
	// leader's write-ahead journal to standbys (ha/replicate.go):
	// frames carry raw length+CRC32 journal records at an exact offset,
	// fetch requests catch-up from a standby's current length, and acks
	// report each standby's durable journal length back to the leader.
	TypeJournalFrame = "journal-frame"
	TypeJournalFetch = "journal-fetch"
	TypeJournalAck   = "journal-ack"
)

// Hello announces an agent to the server. Epoch is the last
// configuration epoch the agent successfully applied (0 = never
// configured); a reconnecting agent reports it so the server can
// idempotently re-push the latest plan only when the agent is behind.
type Hello struct {
	NodeID int    `json:"node_id"`
	Name   string `json:"name"`
	Proxy  bool   `json:"proxy"`
	Epoch  uint64 `json:"epoch,omitempty"`
}

// PolicyDTO is a lossless wire form of one policy.
type PolicyDTO struct {
	ID        int    `json:"id"`
	Prio      int    `json:"prio"`
	SrcAddr   uint32 `json:"src_addr"`
	SrcBits   int    `json:"src_bits"`
	DstAddr   uint32 `json:"dst_addr"`
	DstBits   int    `json:"dst_bits"`
	SrcPortLo uint16 `json:"sp_lo"`
	SrcPortHi uint16 `json:"sp_hi"`
	DstPortLo uint16 `json:"dp_lo"`
	DstPortHi uint16 `json:"dp_hi"`
	Proto     uint8  `json:"proto"`
	Actions   []int  `json:"actions"`
}

// CandidateDTO is one candidate set M_x^e.
type CandidateDTO struct {
	Func  int   `json:"func"`
	Nodes []int `json:"nodes"`
}

// WeightDTO is one LB weight vector.
type WeightDTO struct {
	PolicyID  int       `json:"policy_id"`
	Func      int       `json:"func"`
	SrcSubnet int       `json:"src,omitempty"`
	DstSubnet int       `json:"dst,omitempty"`
	Weights   []float64 `json:"w"`
}

// ConfigDTO is a full node configuration. Seq identifies one wire
// attempt (assigned per send); Epoch identifies the logical plan
// generation (assigned once per rollout, monotonic across the server's
// lifetime) — a re-pushed plan keeps its epoch under a fresh seq, and
// agents apply each epoch at most once.
type ConfigDTO struct {
	Seq   uint64 `json:"seq"`
	Epoch uint64 `json:"epoch,omitempty"`
	// Term is the pushing leader's election term (0 = single-controller
	// deployment, unfenced). Agents track the highest term they have seen
	// and refuse pushes from older terms, so a deposed leader that still
	// holds connections cannot roll the fleet back (split-brain fencing).
	Term           uint64         `json:"term,omitempty"`
	Strategy       int            `json:"strategy"`
	HashSeed       uint64         `json:"hash_seed"`
	LabelSwitching bool           `json:"label_switching"`
	FlowTTL        int64          `json:"flow_ttl"`
	LabelTTL       int64          `json:"label_ttl"`
	Policies       []PolicyDTO    `json:"policies"`
	Candidates     []CandidateDTO `json:"candidates"`
	Weights        []WeightDTO    `json:"weights,omitempty"`
}

// Ack confirms (or refuses) a config push. Epoch echoes the config's
// epoch so the server's convergence record never regresses on a stale
// ack arriving late. Prepared marks phase-1 acks of the two-phase
// rollout: the plan is staged, not applied, so the server must not count
// the epoch as converged off such an ack.
type Ack struct {
	Seq      uint64 `json:"seq"`
	Epoch    uint64 `json:"epoch,omitempty"`
	Error    string `json:"error,omitempty"`
	Prepared bool   `json:"prepared,omitempty"`
	// Term echoes the agent's highest-seen leader term on a stale-term
	// refusal, so a deposed leader learns which term displaced it.
	Term uint64 `json:"term,omitempty"`
}

// Commit is the phase-2 decision message of the two-phase rollout
// (TypeCommit and TypeAbort): it names the staged epoch to flip to or
// discard.
type Commit struct {
	Seq   uint64 `json:"seq"`
	Epoch uint64 `json:"epoch"`
	// Term fences the decision exactly like ConfigDTO.Term fences pushes.
	Term uint64 `json:"term,omitempty"`
}

// LeaseRequest is a candidate's term-scoped bid for leadership.
// (LastTerm, JournalBytes) is the candidate's up-to-date mark — Raft's
// criterion: LastTerm is the term of the leader that last verifiably
// extended the candidate's journal, JournalBytes its intact length. A
// voter refuses the lease unless the candidate's pair is
// lexicographically >= its own. Length alone is not enough: a deposed
// leader's un-acked tail can be longer than a newer leader's
// quorum-acked journal, and electing it would lose acked records.
type LeaseRequest struct {
	Candidate    int    `json:"candidate"`
	Term         uint64 `json:"term"`
	JournalBytes int64  `json:"journal_bytes"`
	LastTerm     uint64 `json:"last_term,omitempty"`
}

// LeaseGrant answers a LeaseRequest. Term echoes the voter's term (the
// request's term if granted; the voter's higher term on refusal, which
// deposes the candidate).
type LeaseGrant struct {
	Voter   int    `json:"voter"`
	Term    uint64 `json:"term"`
	Granted bool   `json:"granted"`
}

// Heartbeat refreshes a leader's lease. JournalBytes is the leader's
// durable journal length: a standby that is behind it requests catch-up
// with a JournalFetch. Followers answer with a Heartbeat of their own
// (Leader echoing the sender) so the leader can count live followers and
// self-depose when it loses its quorum — the lease half of the
// split-brain argument (DESIGN §11).
type Heartbeat struct {
	Leader       int    `json:"leader"`
	Term         uint64 `json:"term"`
	JournalBytes int64  `json:"journal_bytes"`
	// JournalCRC is the running CRC-32 (IEEE) over the sender's whole
	// intact journal. A standby whose length matches the leader's but
	// whose CRC does not has a diverged prefix (records a dead leader
	// streamed that never reached a quorum) and resyncs from scratch.
	JournalCRC uint32 `json:"journal_crc,omitempty"`
	// Reply marks a follower's answer to a leader heartbeat (Leader then
	// names the follower itself).
	Reply bool `json:"reply,omitempty"`
}

// NotLeader bounces an agent off a non-leader replica, naming the
// current leader's management address when known ("" = unknown, try the
// next address in the agent's rotation).
type NotLeader struct {
	LeaderAddr string `json:"leader_addr,omitempty"`
	Term       uint64 `json:"term,omitempty"`
}

// JournalFrame carries raw write-ahead journal records (the on-disk
// length+CRC32 framing, unchanged) from the leader to a standby. Offset
// is the byte position of the first frame in the leader's journal; a
// standby applies the batch only when Offset equals its own journal
// length, preserving the prefix invariant.
type JournalFrame struct {
	Leader int    `json:"leader"`
	Term   uint64 `json:"term"`
	Offset int64  `json:"offset"`
	// PrefixCRC is the running CRC-32 (IEEE) over the leader's journal
	// bytes [0, Offset). A standby applies the batch only when the CRC
	// over its own journal matches — proof that its journal IS the
	// leader's prefix. Without it, a shorter-but-diverged standby (one
	// that applied a dead leader's un-acked tail) would fetch from its own
	// length, which is generally not a frame boundary in the leader's
	// journal, and loop forever on undecodable chunks; the mismatch
	// instead triggers a full resync from offset zero.
	PrefixCRC uint32 `json:"prefix_crc,omitempty"`
	Frames    []byte `json:"frames"`
}

// JournalFetch asks the leader for journal records from a byte offset —
// the standby catch-up path after a gap or a fresh join.
type JournalFetch struct {
	Standby int   `json:"standby"`
	From    int64 `json:"from"`
}

// JournalAck reports a standby's durable journal length after applying
// (or refusing) a frame batch. Term is the fence term the standby
// verified its journal against — the frame's term after a prefix-checked
// apply, or the standby's own higher fence on a stale refusal. The
// leader's quorum accounting counts only acks whose Term equals its own:
// a refused stale frame still produces an ack, and under a newer leader
// that ack's length can name different bytes, so it must never satisfy
// this leader's stream-before-ack gate.
type JournalAck struct {
	Standby int    `json:"standby"`
	Term    uint64 `json:"term"`
	Bytes   int64  `json:"bytes"`
}

// MeasureRow is one traffic measurement bucket (§III-C's T_{s,d,p}).
type MeasureRow struct {
	PolicyID  int   `json:"policy_id"`
	SrcSubnet int   `json:"src"`
	DstSubnet int   `json:"dst"`
	Packets   int64 `json:"packets"`
}

// Measure carries a proxy's measurement report.
type Measure struct {
	NodeID int          `json:"node_id"`
	Rows   []MeasureRow `json:"rows"`
}

// EncodeEnvelope marshals a typed message into the envelope payload used
// on the wire (the bytes after the length prefix). The controller's
// write-ahead journal reuses it so journal records and wire messages
// share one codec.
func EncodeEnvelope(typ string, v interface{}) ([]byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("mgmt: marshal %s: %w", typ, err)
	}
	env, err := json.Marshal(Envelope{T: typ, Data: data})
	if err != nil {
		return nil, fmt.Errorf("mgmt: marshal envelope: %w", err)
	}
	return env, nil
}

// DecodeEnvelope is EncodeEnvelope's inverse.
func DecodeEnvelope(buf []byte) (*Envelope, error) {
	var env Envelope
	if err := json.Unmarshal(buf, &env); err != nil {
		return nil, fmt.Errorf("mgmt: bad envelope: %w", err)
	}
	return &env, nil
}

// writeMsg frames and writes one message.
func writeMsg(w io.Writer, typ string, v interface{}) error {
	env, err := EncodeEnvelope(typ, v)
	if err != nil {
		return err
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(env)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(env)
	return err
}

// readMsg reads one framed message.
func readMsg(r io.Reader) (*Envelope, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > maxFrame {
		return nil, fmt.Errorf("mgmt: bad frame size %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return DecodeEnvelope(buf)
}

// ConfigToDTO serializes an enforce.Config for the wire. Output order is
// canonical (policies as installed, candidate lists by function code,
// weight rows by key), so equal configurations encode to identical wire
// and journal bytes.
func ConfigToDTO(seq uint64, cfg enforce.Config) ConfigDTO {
	dto := ConfigDTO{
		Seq:            seq,
		Strategy:       int(cfg.Strategy),
		HashSeed:       cfg.HashSeed,
		LabelSwitching: cfg.LabelSwitching,
		FlowTTL:        cfg.FlowTTL,
		LabelTTL:       cfg.LabelTTL,
	}
	for _, p := range cfg.Policies {
		dto.Policies = append(dto.Policies, policyToDTO(p))
	}
	dto.Candidates = candidatesToDTO(cfg.Candidates)
	dto.Weights = weightsToDTO(cfg.Weights)
	return dto
}

// candidatesToDTO lists candidate sets by function code.
func candidatesToDTO(c map[policy.FuncType][]topo.NodeID) []CandidateDTO {
	funcs := make([]policy.FuncType, 0, len(c))
	for f := range c {
		funcs = append(funcs, f)
	}
	slices.Sort(funcs)
	var out []CandidateDTO
	for _, f := range funcs {
		cd := CandidateDTO{Func: int(f)}
		for _, n := range c[f] {
			cd.Nodes = append(cd.Nodes, int(n))
		}
		out = append(out, cd)
	}
	return out
}

// weightsToDTO lists weight rows in SortWeightKeys order.
func weightsToDTO(w map[enforce.WeightKey][]float64) []WeightDTO {
	keys := make([]enforce.WeightKey, 0, len(w))
	for k := range w {
		keys = append(keys, k)
	}
	SortWeightKeys(keys)
	var out []WeightDTO
	for _, k := range keys {
		out = append(out, WeightDTO{
			PolicyID: k.PolicyID, Func: int(k.Func),
			SrcSubnet: k.SrcSubnet, DstSubnet: k.DstSubnet,
			Weights: w[k],
		})
	}
	return out
}

// WeightsToDTO serializes a solved weight map; its Weights rows are the
// controller journal's weights-record encoding.
func WeightsToDTO(seq uint64, w map[enforce.WeightKey][]float64) ConfigDTO {
	return ConfigDTO{Seq: seq, Weights: weightsToDTO(w)}
}

// ConfigFromDTO reconstructs an enforce.Config from the wire form.
func ConfigFromDTO(dto ConfigDTO) (enforce.Config, error) {
	cfg := enforce.Config{
		Strategy:       enforce.Strategy(dto.Strategy),
		HashSeed:       dto.HashSeed,
		LabelSwitching: dto.LabelSwitching,
		FlowTTL:        dto.FlowTTL,
		LabelTTL:       dto.LabelTTL,
	}
	for _, pd := range dto.Policies {
		cfg.Policies = append(cfg.Policies, policyFromDTO(pd))
	}
	if len(dto.Candidates) > 0 {
		cfg.Candidates = make(map[policy.FuncType][]topo.NodeID, len(dto.Candidates))
		for _, cd := range dto.Candidates {
			nodes := make([]topo.NodeID, len(cd.Nodes))
			for i, n := range cd.Nodes {
				nodes[i] = topo.NodeID(n)
			}
			cfg.Candidates[policy.FuncType(cd.Func)] = nodes
		}
	}
	cfg.Weights = WeightsFromDTO(dto.Weights)
	return cfg, nil
}

// policyToDTO and policyFromDTO are the lossless per-policy codec shared
// by full-config and delta pushes.
func policyToDTO(p *policy.Policy) PolicyDTO {
	pd := PolicyDTO{
		ID: p.ID, Prio: p.Prio,
		SrcAddr: uint32(p.Desc.Src.Addr()), SrcBits: p.Desc.Src.Bits(),
		DstAddr: uint32(p.Desc.Dst.Addr()), DstBits: p.Desc.Dst.Bits(),
		SrcPortLo: p.Desc.SrcPort.Lo, SrcPortHi: p.Desc.SrcPort.Hi,
		DstPortLo: p.Desc.DstPort.Lo, DstPortHi: p.Desc.DstPort.Hi,
		Proto: p.Desc.Proto,
	}
	for _, a := range p.Actions {
		pd.Actions = append(pd.Actions, int(a))
	}
	return pd
}

func policyFromDTO(pd PolicyDTO) *policy.Policy {
	desc := policy.Descriptor{
		Src:     netaddr.PrefixFrom(netaddr.Addr(pd.SrcAddr), pd.SrcBits),
		Dst:     netaddr.PrefixFrom(netaddr.Addr(pd.DstAddr), pd.DstBits),
		SrcPort: netaddr.PortRange{Lo: pd.SrcPortLo, Hi: pd.SrcPortHi},
		DstPort: netaddr.PortRange{Lo: pd.DstPortLo, Hi: pd.DstPortHi},
		Proto:   pd.Proto,
	}
	actions := make(policy.ActionList, len(pd.Actions))
	for i, a := range pd.Actions {
		actions[i] = policy.FuncType(a)
	}
	return &policy.Policy{ID: pd.ID, Prio: pd.Prio, Desc: desc, Actions: actions}
}

// WeightsFromDTO reconstructs a weight map.
func WeightsFromDTO(rows []WeightDTO) map[enforce.WeightKey][]float64 {
	if len(rows) == 0 {
		return nil
	}
	out := make(map[enforce.WeightKey][]float64, len(rows))
	for _, wd := range rows {
		out[enforce.WeightKey{
			PolicyID: wd.PolicyID, Func: policy.FuncType(wd.Func),
			SrcSubnet: wd.SrcSubnet, DstSubnet: wd.DstSubnet,
		}] = wd.Weights
	}
	return out
}
