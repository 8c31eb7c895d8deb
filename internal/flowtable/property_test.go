package flowtable

// Property test: randomized operation sequences run against the sharded
// table and an independent single-map reference model must produce
// identical observable state — return values, lengths, stats — at every
// step, across shard counts 1, 2 and 64, and every shard's slots must
// account for themselves (live + free == allocated). The sequences
// overwrite live flows, purge with predicates that read any field, and
// jitter timestamps backwards, as concurrent workers stamping their own
// clock reads produce them. Labels are compared by presence and
// table-wide uniqueness, not value: the sharded allocator partitions the
// label space by stride, so the values legitimately differ from any
// sequential reference.

import (
	"fmt"
	"math/rand"
	"testing"

	"sdme/internal/netaddr"
	"sdme/internal/policy"
	"sdme/internal/topo"
)

// propActions are the action lists the sequences insert: two, so entries
// share interned lists and predicates can tell them apart.
var propActions = []policy.ActionList{
	{policy.FuncFW, policy.FuncIDS},
	{policy.FuncIDS, policy.FuncWP},
}

// refEntry mirrors Entry's observable fields.
type refEntry struct {
	policyID      int
	actions       policy.ActionList
	null          bool
	hasLabel      bool
	labelSwitched bool
	nextHop       topo.NodeID
	pinned        bool
	lastHit       int64
}

// refTable is the single-map reference model of Table.
type refTable struct {
	ttl     int64
	entries map[netaddr.FiveTuple]*refEntry
	stats   Stats
}

func newRefTable(ttl int64) *refTable {
	return &refTable{ttl: ttl, entries: make(map[netaddr.FiveTuple]*refEntry)}
}

func (r *refTable) expired(e *refEntry, now int64) bool {
	return r.ttl > 0 && now-e.lastHit > r.ttl
}

func (r *refTable) lookup(ft netaddr.FiveTuple, now int64) (*refEntry, bool) {
	e, ok := r.entries[ft]
	if !ok {
		r.stats.Misses++
		return nil, false
	}
	if r.expired(e, now) {
		delete(r.entries, ft)
		r.stats.Expired++
		r.stats.Misses++
		return nil, false
	}
	e.lastHit = now
	if e.null {
		r.stats.NullHits++
	} else {
		r.stats.Hits++
	}
	return e, true
}

func (r *refTable) insert(ft netaddr.FiveTuple, policyID int, actions policy.ActionList, null bool, now int64) {
	r.entries[ft] = &refEntry{policyID: policyID, actions: actions, null: null, lastHit: now}
	r.stats.Inserted++
}

// allocLabel gives the flow's current entry a label. The reference never
// exhausts: sequences are far smaller than any shard's label slice, so the
// real table must agree.
func (r *refTable) allocLabel(ft netaddr.FiveTuple) bool {
	e, ok := r.entries[ft]
	if ok {
		e.hasLabel = true
	}
	return ok
}

func (r *refTable) flagLabelSwitched(ft netaddr.FiveTuple, now int64) bool {
	e, ok := r.entries[ft]
	if !ok || r.expired(e, now) {
		return false
	}
	e.labelSwitched = true
	e.lastHit = now
	return true
}

func (r *refTable) invalidateIf(pred func(netaddr.FiveTuple, *refEntry) bool) int {
	n := 0
	for ft, e := range r.entries {
		if pred(ft, e) {
			delete(r.entries, ft)
			n++
			r.stats.Invalidated++
		}
	}
	return n
}

func (r *refTable) sweep(now int64) int {
	n := 0
	for ft, e := range r.entries {
		if r.expired(e, now) {
			delete(r.entries, ft)
			n++
			r.stats.Expired++
		}
	}
	return n
}

func propFlow(i int) netaddr.FiveTuple {
	return netaddr.FiveTuple{
		Src: netaddr.Addr(0x0a010000 + i), Dst: netaddr.Addr(0x0a020000 + i%7),
		SrcPort: uint16(10000 + i), DstPort: 80, Proto: netaddr.ProtoTCP,
	}
}

// propPredicate draws one of the purge predicates the sequences use, as
// the table's form and the reference's: pinned to a provider (the
// failover purge), by action list, by source address, null entries.
func propPredicate(rng *rand.Rand) (func(Entry) bool, func(netaddr.FiveTuple, *refEntry) bool) {
	switch rng.Intn(4) {
	case 0:
		mb := topo.NodeID(rng.Intn(4) + 1)
		return func(e Entry) bool { return e.Pinned && e.NextHop == mb },
			func(_ netaddr.FiveTuple, e *refEntry) bool { return e.pinned && e.nextHop == mb }
	case 1:
		a := propActions[rng.Intn(len(propActions))]
		return func(e Entry) bool { return !e.Null && e.Actions.Equal(a) },
			func(_ netaddr.FiveTuple, e *refEntry) bool { return !e.null && e.actions.Equal(a) }
	case 2:
		odd := netaddr.Addr(rng.Intn(2))
		return func(e Entry) bool { return e.Flow.Src&1 == odd },
			func(ft netaddr.FiveTuple, _ *refEntry) bool { return ft.Src&1 == odd }
	default:
		return func(e Entry) bool { return e.Null },
			func(_ netaddr.FiveTuple, e *refEntry) bool { return e.null }
	}
}

// slotAccounting checks every shard of st: the index names exactly the
// live slots, each found by its own key, and live + free == allocated.
func slotAccounting[K comparable, V any](st *store[K, V]) error {
	for si := range st.shards {
		s := &st.shards[si]
		s.mu.Lock()
		allocated, live, occupied, misplaced := 0, 0, 0, 0
		for _, c := range s.cells {
			if uint32(c) != 0 {
				occupied++
			}
		}
		for c, chunk := range s.chunks {
			allocated += len(chunk)
			for j := range chunk {
				e := &chunk[j]
				if e.flags&flagLive == 0 {
					continue
				}
				live++
				p, ok := s.seek(e.key, uint32(st.hash(e.key)>>32))
				if !ok || uint32(s.cells[p]) != uint32(c<<chunkBits|j)+1 {
					misplaced++
				}
			}
		}
		used, free := s.used, len(s.free)
		s.mu.Unlock()
		if misplaced > 0 || live != used || occupied != used || live+free != allocated {
			return fmt.Errorf("shard %d: live %d, used %d, occupied cells %d, misplaced %d, free %d, allocated %d",
				si, live, used, occupied, misplaced, free, allocated)
		}
	}
	return nil
}

func comparePropState(t *testing.T, seed int64, step int, tbl *Table, ref *refTable) {
	t.Helper()
	if tbl.Len() != len(ref.entries) {
		t.Fatalf("seed %d step %d: Len = %d, ref = %d", seed, step, tbl.Len(), len(ref.entries))
	}
	if got, want := tbl.Stats(), ref.stats; got != want {
		t.Fatalf("seed %d step %d: stats = %+v, ref = %+v", seed, step, got, want)
	}
	if err := slotAccounting(&tbl.store); err != nil {
		t.Fatalf("seed %d step %d: %v", seed, step, err)
	}
}

// propClock advances a sequence's clock: mostly forward, sometimes a
// little backwards (a worker stamping an older clock read), and before a
// sweep by up to two TTLs.
func propClock(rng *rand.Rand, now int64) int64 {
	if rng.Intn(5) == 0 {
		return now - int64(rng.Intn(6))
	}
	return now + int64(rng.Intn(5))
}

func TestShardedTableMatchesReferenceModel(t *testing.T) {
	const (
		sequences = 1000
		steps     = 60
		universe  = 24
		ttl       = 50
	)
	for _, shards := range []int{1, 2, 64} {
		for seq := 0; seq < sequences; seq++ {
			seed := int64(shards)*1_000_000 + int64(seq)
			rng := rand.New(rand.NewSource(seed))
			tbl := NewTableSharded(ttl, shards)
			ref := newRefTable(ttl)
			now := int64(0)

			for step := 0; step < steps; step++ {
				ft := propFlow(rng.Intn(universe))
				switch op := rng.Intn(100); {
				case op < 25: // Lookup
					e, ok := tbl.Lookup(ft, now)
					re, rok := ref.lookup(ft, now)
					if ok != rok {
						t.Fatalf("seed %d step %d: Lookup found=%v, ref=%v", seed, step, ok, rok)
					}
					if ok {
						if e.Flow != ft || e.PolicyID != re.policyID || e.Null != re.null ||
							!e.Actions.Equal(re.actions) ||
							e.LabelSwitched != re.labelSwitched || e.Pinned != re.pinned ||
							(e.Label != 0) != re.hasLabel {
							t.Fatalf("seed %d step %d: entry mismatch: %+v vs ref %+v", seed, step, e, re)
						}
						if e.Pinned && e.NextHop != re.nextHop {
							t.Fatalf("seed %d step %d: NextHop %v vs ref %v", seed, step, e.NextHop, re.nextHop)
						}
					}
				case op < 38: // Insert, over whatever the flow had
					pid := rng.Intn(5)
					a := propActions[rng.Intn(len(propActions))]
					tbl.Insert(ft, pid, a, now)
					ref.insert(ft, pid, a, false, now)
				case op < 44: // Overwrite a live, labeled flow: the new entry starts bare
					_, ok := tbl.Lookup(ft, now)
					if _, rok := ref.lookup(ft, now); ok != rok {
						t.Fatalf("seed %d step %d: pre-overwrite Lookup diverged", seed, step)
					}
					if ok {
						tbl.AllocLabel(ft)
						tbl.Insert(ft, 9, propActions[0], now)
						ref.insert(ft, 9, propActions[0], false, now)
						if e, _ := tbl.Lookup(ft, now); e.Label != 0 || e.Pinned || e.LabelSwitched {
							t.Fatalf("seed %d step %d: overwrite kept old state: %+v", seed, step, e)
						}
						ref.lookup(ft, now)
					}
				case op < 52: // InsertNull
					tbl.InsertNull(ft, now)
					ref.insert(ft, 0, nil, true, now)
				case op < 64: // Lookup-then-AllocLabel (the dataplane's pattern)
					_, ok := tbl.Lookup(ft, now)
					if _, rok := ref.lookup(ft, now); ok != rok {
						t.Fatalf("seed %d step %d: pre-alloc Lookup diverged", seed, step)
					}
					if ok {
						if l := tbl.AllocLabel(ft); l == 0 {
							t.Fatalf("seed %d step %d: AllocLabel exhausted unexpectedly", seed, step)
						}
						ref.allocLabel(ft)
					}
				case op < 72: // FlagLabelSwitched
					if got, want := tbl.FlagLabelSwitched(ft, now), ref.flagLabelSwitched(ft, now); got != want {
						t.Fatalf("seed %d step %d: FlagLabelSwitched = %v, ref = %v", seed, step, got, want)
					}
				case op < 82: // Lookup-then-Pin
					_, ok := tbl.Lookup(ft, now)
					re, rok := ref.lookup(ft, now)
					if ok != rok {
						t.Fatalf("seed %d step %d: pre-pin Lookup diverged", seed, step)
					}
					if ok {
						mb := topo.NodeID(rng.Intn(4) + 1)
						tbl.SetHop(ft, Hop{NextHop: mb, Pinned: true})
						re.nextHop, re.pinned = mb, true
					}
				case op < 90: // InvalidateIf
					pred, refPred := propPredicate(rng)
					if got, want := tbl.InvalidateIf(pred), ref.invalidateIf(refPred); got != want {
						t.Fatalf("seed %d step %d: InvalidateIf = %d, ref = %d", seed, step, got, want)
					}
				default: // Sweep after a time jump
					now += int64(rng.Intn(ttl * 2))
					if got, want := tbl.Sweep(now), ref.sweep(now); got != want {
						t.Fatalf("seed %d step %d: Sweep = %d, ref = %d", seed, step, got, want)
					}
				}
				now = propClock(rng, now)
				comparePropState(t, seed, step, tbl, ref)
			}

			// Final: live labels must be pairwise distinct and agree with
			// the reference on presence (checked after the step loop so
			// the verification Lookups don't desynchronize stats).
			seen := make(map[uint16]netaddr.FiveTuple)
			for i := 0; i < universe; i++ {
				ft := propFlow(i)
				e, ok := tbl.Lookup(ft, now)
				re, rok := ref.lookup(ft, now)
				if ok != rok {
					t.Fatalf("seed %d: final Lookup diverged for %v", seed, ft)
				}
				if !ok {
					continue
				}
				if (e.Label != 0) != re.hasLabel {
					t.Fatalf("seed %d: label presence mismatch for %v", seed, ft)
				}
				if e.Label != 0 {
					if prev, dup := seen[e.Label]; dup {
						t.Fatalf("seed %d: duplicate label %d on %v and %v", seed, e.Label, prev, ft)
					}
					seen[e.Label] = ft
				}
			}
		}
	}
}

// refLabelTable is the single-map reference model of LabelTable.
type refLabelTable struct {
	ttl     int64
	entries map[LabelKey]*refLabelEntry
	stats   Stats
}

type refLabelEntry struct {
	policyID int
	actions  policy.ActionList
	flow     netaddr.FiveTuple
	dst      netaddr.Addr
	hasDst   bool
	nextHop  topo.NodeID
	pinned   bool
	lastHit  int64
}

func newRefLabelTable(ttl int64) *refLabelTable {
	return &refLabelTable{ttl: ttl, entries: make(map[LabelKey]*refLabelEntry)}
}

func (r *refLabelTable) lookup(k LabelKey, now int64) (*refLabelEntry, bool) {
	e, ok := r.entries[k]
	if !ok {
		r.stats.Misses++
		return nil, false
	}
	if r.ttl > 0 && now-e.lastHit > r.ttl {
		delete(r.entries, k)
		r.stats.Expired++
		r.stats.Misses++
		return nil, false
	}
	e.lastHit = now
	r.stats.Hits++
	return e, true
}

func (r *refLabelTable) insert(k LabelKey, pid int, actions policy.ActionList, flow netaddr.FiveTuple, tail bool, now int64) {
	e := &refLabelEntry{policyID: pid, actions: actions, flow: flow, lastHit: now}
	if tail {
		e.dst, e.hasDst = flow.Dst, true
	}
	r.entries[k] = e
	r.stats.Inserted++
}

func (r *refLabelTable) invalidateIf(pred func(*refLabelEntry) bool) int {
	n := 0
	for k, e := range r.entries {
		if pred(e) {
			delete(r.entries, k)
			n++
			r.stats.Invalidated++
		}
	}
	return n
}

func (r *refLabelTable) sweep(now int64) int {
	n := 0
	for k, e := range r.entries {
		if r.ttl > 0 && now-e.lastHit > r.ttl {
			delete(r.entries, k)
			n++
			r.stats.Expired++
		}
	}
	return n
}

// propLabelPredicate is propPredicate for the label table: pinned to a
// provider, by action list, by the flow's source port, tail entries.
func propLabelPredicate(rng *rand.Rand) (func(LabelEntry) bool, func(*refLabelEntry) bool) {
	switch rng.Intn(4) {
	case 0:
		mb := topo.NodeID(rng.Intn(3) + 1)
		return func(e LabelEntry) bool { return e.Pinned && e.NextHop == mb },
			func(e *refLabelEntry) bool { return e.pinned && e.nextHop == mb }
	case 1:
		a := propActions[rng.Intn(len(propActions))]
		return func(e LabelEntry) bool { return e.Actions.Equal(a) },
			func(e *refLabelEntry) bool { return e.actions.Equal(a) }
	case 2:
		odd := uint16(rng.Intn(2))
		return func(e LabelEntry) bool { return e.Flow.SrcPort&1 == odd },
			func(e *refLabelEntry) bool { return e.flow.SrcPort&1 == odd }
	default:
		return func(e LabelEntry) bool { return e.HasDst },
			func(e *refLabelEntry) bool { return e.hasDst }
	}
}

func TestShardedLabelTableMatchesReferenceModel(t *testing.T) {
	const (
		sequences = 1000
		steps     = 50
		universe  = 20
		ttl       = 40
	)
	key := func(i int) LabelKey {
		return LabelKey{Src: netaddr.Addr(0x0a010000 + i%5), Label: uint16(100 + i)}
	}
	for _, shards := range []int{1, 2, 64} {
		for seq := 0; seq < sequences; seq++ {
			seed := int64(shards)*2_000_000 + int64(seq)
			rng := rand.New(rand.NewSource(seed))
			tbl := NewLabelTableSharded(ttl, shards)
			ref := newRefLabelTable(ttl)
			now := int64(0)

			for step := 0; step < steps; step++ {
				i := rng.Intn(universe)
				k := key(i)
				// The flow varies per insert, so an overwrite changes it.
				flow := propFlow(i + universe*rng.Intn(2))
				a := propActions[rng.Intn(len(propActions))]
				switch op := rng.Intn(100); {
				case op < 35: // Lookup
					e, ok := tbl.Lookup(k, now)
					re, rok := ref.lookup(k, now)
					if ok != rok {
						t.Fatalf("seed %d step %d: Lookup found=%v ref=%v", seed, step, ok, rok)
					}
					if ok && (e.Key != k || e.PolicyID != re.policyID || e.Flow != re.flow ||
						!e.Actions.Equal(re.actions) || e.HasDst != re.hasDst || e.Dst != re.dst ||
						e.Pinned != re.pinned || e.Pinned && e.NextHop != re.nextHop) {
						t.Fatalf("seed %d step %d: entry mismatch %+v vs %+v", seed, step, e, re)
					}
				case op < 55: // Insert (mid-chain), over whatever the key had
					pid := rng.Intn(4)
					tbl.Insert(k, pid, a, flow, now)
					ref.insert(k, pid, a, flow, false, now)
				case op < 70: // InsertTail
					pid := rng.Intn(4)
					tbl.InsertTail(k, pid, a, flow, now)
					ref.insert(k, pid, a, flow, true, now)
				case op < 80: // Lookup-then-Pin
					_, ok := tbl.Lookup(k, now)
					re, rok := ref.lookup(k, now)
					if ok != rok {
						t.Fatalf("seed %d step %d: pre-pin Lookup diverged", seed, step)
					}
					if ok {
						mb := topo.NodeID(rng.Intn(3) + 1)
						tbl.SetHop(k, Hop{NextHop: mb, Pinned: true})
						re.nextHop, re.pinned = mb, true
					}
				case op < 90: // InvalidateIf
					pred, refPred := propLabelPredicate(rng)
					if got, want := tbl.InvalidateIf(pred), ref.invalidateIf(refPred); got != want {
						t.Fatalf("seed %d step %d: InvalidateIf = %d, ref = %d", seed, step, got, want)
					}
				default: // Sweep after a time jump
					now += int64(rng.Intn(ttl * 2))
					if got, want := tbl.Sweep(now), ref.sweep(now); got != want {
						t.Fatalf("seed %d step %d: Sweep = %d, ref = %d", seed, step, got, want)
					}
				}
				now = propClock(rng, now)
				if tbl.Len() != len(ref.entries) {
					t.Fatalf("seed %d step %d: Len = %d, ref = %d", seed, step, tbl.Len(), len(ref.entries))
				}
				if got, want := tbl.Stats(), ref.stats; got != want {
					t.Fatalf("seed %d step %d: stats = %+v, ref = %+v", seed, step, got, want)
				}
				if err := slotAccounting(&tbl.store); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
			}
		}
	}
}
