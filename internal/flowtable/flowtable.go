// Package flowtable implements the two per-node soft-state tables the
// paper adds to proxies and middleboxes:
//
//   - the flow hash table of §III-D, mapping a 5-tuple to its resolved
//     action list so the multi-field policy lookup runs at most once per
//     flow — including negative ("null") entries for flows that match no
//     policy;
//   - the label table of §III-E, mapping ⟨source address | label⟩ to the
//     action list (plus, at the chain's last middlebox, the flow's real
//     destination) so subsequent packets can be label-switched without an
//     outer IP header.
//
// Both tables are soft state: entries expire after a TTL without hits.
// Time is an explicit int64 tick supplied by the caller, so the same code
// runs under the discrete-event simulator's virtual clock and the live
// runtime's wall clock.
//
// Both tables are one slot store (store.go), lock-striped into a
// power-of-two number of shards. Entries go in and out by value: Lookup
// returns a copy, and every later change (SetHop, AllocLabel,
// FlagLabelSwitched) names the key and happens under its shard's lock, so
// no caller ever holds table memory. Every method holds at most one shard
// lock at a time — InvalidateIf and Sweep visit the shards one by one — so
// a table-wide purge never stalls the whole hot path at once.
package flowtable

import (
	"math"

	"sdme/internal/netaddr"
	"sdme/internal/policy"
	"sdme/internal/topo"
)

// Hop is the next hop an entry records: the middlebox the flow (or the
// label's chain) was last forwarded to, its address, and the generation of
// the node configuration it was chosen under. A hop with Gen 0 is no
// decision, only the middlebox. Pinned marks the entries InvalidateProvider
// purges when NextHop dies: local fast failover uses the pin to purge
// flows riding a provider that has since died, instead of waiting for the
// TTL.
type Hop struct {
	NextHop topo.NodeID
	HopAddr netaddr.Addr
	Gen     uint32
	Pinned  bool
}

// Entry is a copy of one flow-table record. Null entries cache "no policy
// matched".
type Entry struct {
	Flow     netaddr.FiveTuple
	PolicyID int
	// Actions is the table's interned copy of the action list, shared by
	// every entry with the same list: it must not be modified.
	Actions policy.ActionList
	// Hop is where the flow goes next from this node: the chain's first
	// middlebox at a proxy (pinned), the next one at a middlebox (not).
	Hop
	Null bool
	// LabelSwitched is flipped when the tail middlebox's control packet
	// arrives; from then on packets are label-switched, not tunneled.
	LabelSwitched bool
	// Label is the locally unique label the proxy assigned to the flow
	// (0 = none allocated).
	Label uint16
}

// Stats counts table activity; the §III-D ablation benchmark reads these.
type Stats struct {
	Hits, Misses, NullHits int
	Inserted, Expired      int
	// Invalidated counts entries purged by InvalidateProvider /
	// InvalidateIf (failover purges, not TTL expiry).
	Invalidated int
}

func (s *Stats) add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.NullHits += o.NullHits
	s.Inserted += o.Inserted
	s.Expired += o.Expired
	s.Invalidated += o.Invalidated
}

// shardSeed salts the tables' hashes so they are independent of the
// dataplane's selection hashes.
const shardSeed = 0x736861726431 // "shard1"

type (
	flowShard = shard[netaddr.FiveTuple, struct{}]
	flowSlot  = slot[netaddr.FiveTuple, struct{}]
)

// Table is the flow hash table. All methods are safe for concurrent use.
type Table struct {
	store[netaddr.FiveTuple, struct{}]
}

// NewTable creates a single-shard table whose entries expire ttl ticks
// after their last hit. ttl <= 0 disables expiry.
func NewTable(ttl int64) *Table { return NewTableSharded(ttl, 1) }

// NewTableSharded creates a table striped over the given number of shards
// (rounded up to a power of two, clamped to [1, MaxShards]; <= 0 means 1).
// The 16-bit label space is partitioned across shards — shard i allocates
// labels ≡ i+1 (mod shards) — so allocation never coordinates across
// shards while labels stay unique table-wide.
func NewTableSharded(ttl int64, shards int) *Table {
	t := &Table{newStore[netaddr.FiveTuple, struct{}](ttl, shards, flowHash)}
	for i := range t.shards {
		t.shards[i].nextLabel, t.shards[i].stride = uint32(i+1), uint32(len(t.shards))
	}
	return t
}

// flowHash is the tables' hash of a 5-tuple: two Mix64 rounds over the
// packed tuple, a third of the cost of the byte-wise FNV the dataplane's
// selection hash uses.
func flowHash(ft netaddr.FiveTuple) uint64 {
	ports := uint64(ft.SrcPort)<<24 | uint64(ft.DstPort)<<8 | uint64(ft.Proto)
	return netaddr.Mix64((uint64(ft.Src)<<32 | uint64(ft.Dst)) ^ netaddr.Mix64(ports^shardSeed))
}

// fill copies slot e into out field by field: in place, where building an
// Entry value would be copied once more.
func (t *Table) fill(out *Entry, s *flowShard, e *flowSlot) {
	out.Flow, out.PolicyID, out.Actions = e.key, int(e.policyID), s.acts.list(e.acts)
	out.Hop = e.hop()
	out.Null, out.LabelSwitched = e.flags&flagNull != 0, e.flags&flagSwitched != 0
	out.Label = e.label
}

// Lookup returns the live entry for ft, refreshing its TTL. Expired
// entries are removed and reported as misses.
func (t *Table) Lookup(ft netaddr.FiveTuple, now int64) (out Entry, found bool) {
	s, tag := t.locate(flowHash(ft))
	s.mu.Lock()
	if e := t.find(s, ft, tag, now); e != nil {
		if e.flags&flagNull != 0 {
			s.stats.NullHits++
		} else {
			s.stats.Hits++
		}
		t.fill(&out, s, e)
		found = true
	}
	s.mu.Unlock()
	return out, found
}

// Insert records the resolved policy for a flow, replacing any entry it
// had, and returns the new entry.
func (t *Table) Insert(ft netaddr.FiveTuple, policyID int, actions policy.ActionList, now int64) Entry {
	return t.insert(ft, policyID, actions, 0, now)
}

// InsertNull records that no policy matches the flow, so subsequent
// packets skip classification entirely (§III-D's ⟨f, null⟩ entries).
func (t *Table) InsertNull(ft netaddr.FiveTuple, now int64) Entry {
	return t.insert(ft, 0, nil, flagNull, now)
}

func (t *Table) insert(ft netaddr.FiveTuple, policyID int, actions policy.ActionList, flags uint8, now int64) (out Entry) {
	s, tag := t.locate(flowHash(ft))
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.insert(ft, tag, now)
	e.policyID, e.acts, e.flags = int32(policyID), s.acts.id(actions), e.flags|flags
	t.fill(&out, s, e)
	return out
}

// AllocLabel assigns the flow's entry a label that is unique among live
// entries of this table, per §III-E ("locally unique"), and returns it; a
// flow that has one keeps it. It returns 0 when the flow has no entry, or
// when the entry's shard has exhausted its slice of the 65535-label space
// — with one shard, exactly when all 65535 labels are in use.
func (t *Table) AllocLabel(ft netaddr.FiveTuple) uint16 {
	s, tag := t.locate(flowHash(ft))
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.get(ft, tag)
	if e == nil {
		return 0
	}
	if e.label == 0 {
		e.label = s.getLabel()
	}
	return e.label
}

// FlagLabelSwitched marks the flow's entry for label switching (called
// when the proxy receives the tail middlebox's control packet). It
// reports whether a live entry was found.
func (t *Table) FlagLabelSwitched(ft netaddr.FiveTuple, now int64) bool {
	s, tag := t.locate(flowHash(ft))
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.get(ft, tag)
	if e == nil || t.expired(e, now) {
		return false
	}
	e.flags |= flagSwitched
	e.lastHit = now
	return true
}

// InvalidateIf purges every entry matching the predicate and returns the
// eviction count. Shards are visited one at a time — the table is never
// globally locked — so entries inserted into already-visited shards
// during the scan may survive; callers needing a fixed point re-run the
// purge. The predicate runs under a shard lock and must not call back
// into the table.
func (t *Table) InvalidateIf(pred func(Entry) bool) int {
	return t.purge(true, math.MinInt64, func(s *flowShard, e *flowSlot) bool {
		var out Entry
		t.fill(&out, s, e)
		return pred(out)
	})
}

// LabelKey identifies a label-table entry: the paper's ⟨src | l⟩
// concatenation (§III-E). Src is the ORIGINAL flow's source address (kept
// as the outer tunnel source along the whole chain), which is what makes
// labels from different proxies collision-free at a shared middlebox.
type LabelKey struct {
	Src   netaddr.Addr
	Label uint16
}

// labelHash is the tables' hash of a label key: FNV-1a over src then
// label, avalanched.
func labelHash(k LabelKey) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := (uint64(offset64) ^ shardSeed ^ uint64(k.Src)) * prime64
	return netaddr.Mix64((h ^ uint64(k.Label)) * prime64)
}

// LabelEntry is a copy of one label-table record at a middlebox.
type LabelEntry struct {
	Key      LabelKey
	PolicyID int
	// Actions is the table's interned action list; see Entry.Actions.
	Actions policy.ActionList
	// Flow is the flow's ORIGINAL 5-tuple, recorded when the first
	// (tunneled) packet installed the entry. Label-switched packets have
	// their destination address rewritten hop by hop, so the original
	// tuple must come from here for hash-based next-hop selection to
	// stay consistent with the first packet's choices.
	Flow netaddr.FiveTuple
	// Dst is the flow's real destination, recorded only at the last
	// middlebox of the chain (HasDst true) so it can restore the
	// destination address before final forwarding.
	Dst    netaddr.Addr
	HasDst bool
	// Hop is the downstream middlebox the chain continues at, pinned once
	// this node's function passed the flow's first packet (unset at the
	// tail).
	Hop
}

// A label slot's value is the flow's original 5-tuple.
type (
	labelShard = shard[LabelKey, netaddr.FiveTuple]
	labelSlot  = slot[LabelKey, netaddr.FiveTuple]
)

// LabelTable is the per-middlebox label-switching table: the same store
// as Table, whose shards' label allocators stay unused (labels here are
// assigned upstream).
type LabelTable struct {
	store[LabelKey, netaddr.FiveTuple]
}

// NewLabelTable creates a single-shard label table with the given TTL
// (<= 0 disables expiry).
func NewLabelTable(ttl int64) *LabelTable { return NewLabelTableSharded(ttl, 1) }

// NewLabelTableSharded creates a label table striped over the given
// number of shards (rounded up to a power of two, clamped to
// [1, MaxShards]; <= 0 means 1).
func NewLabelTableSharded(ttl int64, shards int) *LabelTable {
	return &LabelTable{newStore[LabelKey, netaddr.FiveTuple](ttl, shards, labelHash)}
}

// fill is Table.fill for label entries.
func (t *LabelTable) fill(out *LabelEntry, s *labelShard, e *labelSlot) {
	out.Key, out.PolicyID, out.Actions, out.Flow = e.key, int(e.policyID), s.acts.list(e.acts), e.val
	out.Hop = e.hop()
	if e.flags&flagHasDst != 0 {
		out.Dst, out.HasDst = e.val.Dst, true
	}
}

// Lookup returns the live entry for the key, refreshing its TTL.
func (t *LabelTable) Lookup(k LabelKey, now int64) (out LabelEntry, found bool) {
	s, tag := t.locate(labelHash(k))
	s.mu.Lock()
	if e := t.find(s, k, tag, now); e != nil {
		s.stats.Hits++
		t.fill(&out, s, e)
		found = true
	}
	s.mu.Unlock()
	return out, found
}

// Insert records ⟨src|l, actions⟩, the per-hop state installed while the
// first packet of a flow traverses the chain. flow is the original
// 5-tuple of the flow (see LabelEntry.Flow).
func (t *LabelTable) Insert(k LabelKey, policyID int, actions policy.ActionList, flow netaddr.FiveTuple, now int64) LabelEntry {
	return t.insert(k, policyID, actions, flow, 0, now)
}

// InsertTail records ⟨src|l, actions, dst⟩ at the chain's last middlebox.
func (t *LabelTable) InsertTail(k LabelKey, policyID int, actions policy.ActionList, flow netaddr.FiveTuple, now int64) LabelEntry {
	return t.insert(k, policyID, actions, flow, flagHasDst, now)
}

func (t *LabelTable) insert(k LabelKey, policyID int, actions policy.ActionList, flow netaddr.FiveTuple, flags uint8, now int64) (out LabelEntry) {
	s, tag := t.locate(labelHash(k))
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.insert(k, tag, now)
	e.val, e.policyID, e.acts, e.flags = flow, int32(policyID), s.acts.id(actions), e.flags|flags
	t.fill(&out, s, e)
	return out
}

// InvalidateIf purges every label entry matching the predicate and
// returns the eviction count; see Table.InvalidateIf.
func (t *LabelTable) InvalidateIf(pred func(LabelEntry) bool) int {
	return t.purge(true, math.MinInt64, func(s *labelShard, e *labelSlot) bool {
		var out LabelEntry
		t.fill(&out, s, e)
		return pred(out)
	})
}
