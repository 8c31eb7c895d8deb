package flowtable

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"sync"

	"sdme/internal/netaddr"
	"sdme/internal/policy"
	"sdme/internal/topo"
)

// MaxShards bounds the shard count; requests are rounded up to the next
// power of two and clamped to [1, MaxShards].
const MaxShards = 256

// Slot flags.
const (
	flagLive     uint8 = 1 << iota // the slot holds a record (else it is on the free list)
	flagPinned                     // InvalidateProvider purges by nextHop
	flagNull                       // flow table: no policy matched
	flagSwitched                   // flow table: the chain confirmed label switching
	flagHasDst                     // label table: the chain's tail (Dst = val.Dst)
)

// slot is one record, held by value in its shard's slab: the fields both
// tables share, and V for the rest (nothing for a flow, the original
// 5-tuple for a label). No slot may contain a pointer kind, so the slab is
// memory the garbage collector never scans (TestSlotsArePointerFree); the
// action list is an index into the shard's interned lists. The policy and
// the next hop are narrowed to 32 bits so the stored decision (nextHop,
// hopAddr, gen) fits the bytes the wider pair took: a flow slot is 48
// bytes and a label slot 56 (TestSlotSizes).
type slot[K comparable, V any] struct {
	key      K
	val      V
	lastHit  int64
	policyID int32
	nextHop  int32 // a topo.NodeID
	hopAddr  netaddr.Addr
	gen      uint32
	acts     uint32 // interner index; 0 is the empty list
	label    uint16 // the flow table's allocated label (0 = none)
	flags    uint8
}

func (e *slot[K, V]) hop() Hop {
	return Hop{NextHop: topo.NodeID(e.nextHop), HopAddr: e.hopAddr, Gen: e.gen, Pinned: e.flags&flagPinned != 0}
}

func (e *slot[K, V]) setHop(h Hop) {
	e.nextHop, e.hopAddr, e.gen = int32(h.NextHop), h.HopAddr, h.Gen
	if e.flags &^= flagPinned; h.Pinned {
		e.flags |= flagPinned
	}
}

// The slab is a list of chunks of 1<<chunkBits slots; slot i lives at
// chunks[i>>chunkBits][i&chunkMask]. A full chunk never moves, so the slab
// grows without copying; only the first starts small and grows by append,
// which keeps a table of a handful of flows small.
const (
	chunkBits = 8
	chunkMask = 1<<chunkBits - 1
)

// shard is one lock stripe of a store: the slab, the free list of slots
// released by expiry and invalidation (live + free == allocated), and the
// index from key to slot.
//
// The index is open addressing with linear probing over a power-of-two
// array of cells, kept at most three quarters full. A cell is empty (0) or
// holds the key's tag — the high 32 bits of its hash, whose low bits are
// also the cell the probe starts at — above the slot number plus one, so a
// probe reads a slot only on a tag match. Removal shifts the rest of the
// probe cluster back instead of leaving a tombstone, so churn never
// lengthens probes. A cell is 8 bytes; a map[FiveTuple]uint32 spends 20
// per key before its own slack.
type shard[K comparable, V any] struct {
	mu     sync.Mutex
	cells  []uint64
	used   int // occupied cells: the live records
	chunks [][]slot[K, V]
	free   []uint32
	// due marks the records a purge has released and must still drop from
	// the index: bit i+1 for slot i, as a cell holds it, so bit 0 — an empty
	// cell — is never set.
	due   []uint64
	acts  interner
	stats Stats
	// nextLabel, stride and freeLabels allocate a flow table's labels
	// (getLabel); a label table leaves them zero.
	nextLabel, stride uint32
	freeLabels        []uint16
}

func (s *shard[K, V]) at(i uint32) *slot[K, V] {
	return &s.chunks[i>>chunkBits][i&chunkMask]
}

// seek returns the cell holding k, whose tag is t, and true; or the empty
// cell where k would go, and false.
func (s *shard[K, V]) seek(k K, t uint32) (int, bool) {
	if len(s.cells) == 0 { // a shard gets its index on its first probe
		s.cells = make([]uint64, 8)
	}
	mask := len(s.cells) - 1
	for p := int(t) & mask; ; p = (p + 1) & mask {
		c := s.cells[p]
		if uint32(c) == 0 {
			return p, false
		}
		if uint32(c>>32) == t && s.at(uint32(c)-1).key == k {
			return p, true
		}
	}
}

// get returns k's slot, expired or not; nil when k has none.
func (s *shard[K, V]) get(k K, t uint32) *slot[K, V] {
	if p, ok := s.seek(k, t); ok {
		return s.at(uint32(s.cells[p]) - 1)
	}
	return nil
}

// insert returns a fresh slot for k stamped now, replacing k's record if it
// had one (whose label goes back to the allocator). The caller fills in the
// rest under the same lock.
func (s *shard[K, V]) insert(k K, t uint32, now int64) *slot[K, V] {
	s.stats.Inserted++
	p, ok := s.seek(k, t)
	i := uint32(s.cells[p]) - 1
	if !ok {
		i = s.take()
		s.cells[p] = uint64(t)<<32 | uint64(i+1)
		if s.used++; s.used*4 > len(s.cells)*3 {
			s.grow()
		}
	}
	e := s.at(i)
	s.putLabel(e.label)
	*e = slot[K, V]{key: k, lastHit: now, flags: flagLive}
	return e
}

// grow doubles the index, placing every cell anew from its tag.
func (s *shard[K, V]) grow() {
	old := s.cells
	s.cells = make([]uint64, 2*len(old))
	mask := len(s.cells) - 1
	for _, c := range old {
		if uint32(c) != 0 {
			p := int(c>>32) & mask
			for s.cells[p] != 0 {
				p = (p + 1) & mask
			}
			s.cells[p] = c
		}
	}
}

// take pops a free slot, or appends one to the slab.
func (s *shard[K, V]) take() uint32 {
	if n := len(s.free) - 1; n >= 0 {
		i := s.free[n]
		s.free = s.free[:n]
		return i
	}
	last := len(s.chunks) - 1
	if last < 0 || len(s.chunks[last]) == 1<<chunkBits {
		s.chunks = append(s.chunks, make([]slot[K, V], 0, min(8<<(8*len(s.chunks)), 1<<chunkBits)))
		last++
	}
	s.chunks[last] = append(s.chunks[last], slot[K, V]{})
	return uint32(last<<chunkBits | (len(s.chunks[last]) - 1))
}

// unlink drops cell p from the index and shifts the probe cluster after p
// back over the hole: a cell moves when its home lies cyclically at or
// before the hole.
func (s *shard[K, V]) unlink(p int) {
	mask := len(s.cells) - 1
	for q := (p + 1) & mask; s.cells[q] != 0; q = (q + 1) & mask {
		if home := int(s.cells[q]>>32) & mask; (q-home)&mask >= (q-p)&mask {
			s.cells[p] = s.cells[q]
			p = q
		}
	}
	s.cells[p] = 0
	s.used--
}

// release returns slot i and its label to the free lists.
func (s *shard[K, V]) release(i uint32) {
	e := s.at(i)
	s.putLabel(e.label)
	e.label, e.flags = 0, 0 // insert rewrites the rest
	s.free = append(s.free, i)
}

// unlinkDue walks the index in order and drops every cell whose slot is
// marked due. After an unlink the walk looks at the same cell again, since
// the cluster shifted back into it; cells of a cluster that wraps past the
// end only move onto the hole, at or after the walk, so none is skipped.
// The test reads the bitmap for empty cells too, without a branch on them.
func (s *shard[K, V]) unlinkDue() {
	for p := 0; p < len(s.cells); {
		if v := uint32(s.cells[p]); s.due[v>>6]&(1<<(v&63)) != 0 {
			s.unlink(p)
			continue
		}
		p++
	}
}

// store is the slot store both tables are. A key's shard is the low bits
// of its hash; its tag in the shard's index is the high 32.
type store[K comparable, V any] struct {
	ttl    int64
	mask   uint64
	hash   func(K) uint64
	shards []shard[K, V]
}

func newStore[K comparable, V any](ttl int64, shards int, hash func(K) uint64) store[K, V] {
	n := 1 << bits.Len(uint(min(max(shards, 1), MaxShards)-1))
	return store[K, V]{ttl: ttl, mask: uint64(n - 1), hash: hash, shards: make([]shard[K, V], n)}
}

func (st *store[K, V]) expired(e *slot[K, V], now int64) bool {
	return st.ttl > 0 && now-e.lastHit > st.ttl
}

// find is both tables' Lookup under s's lock: k's live slot with its TTL
// refreshed, or nil and a miss counted (the record removed if it expired).
func (st *store[K, V]) find(s *shard[K, V], k K, t uint32, now int64) *slot[K, V] {
	p, ok := s.seek(k, t)
	if !ok {
		s.stats.Misses++
		return nil
	}
	i := uint32(s.cells[p]) - 1
	e := s.at(i)
	if st.expired(e, now) {
		s.unlink(p)
		s.release(i)
		s.stats.Expired++
		s.stats.Misses++
		return nil
	}
	e.lastHit = now
	return e
}

// locate returns the shard and tag of a key whose hash is h. The tables'
// per-packet methods hash with their own function, a direct call; the
// store's generic ones go through st.hash.
func (st *store[K, V]) locate(h uint64) (*shard[K, V], uint32) {
	return &st.shards[h&st.mask], uint32(h >> 32)
}

// SetHop records h as the hop the flow (or the label's chain) continues
// at; a key with no entry is left alone.
func (st *store[K, V]) SetHop(k K, h Hop) {
	s, t := st.locate(st.hash(k))
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.get(k, t); e != nil {
		e.setHop(h)
	}
}

// InvalidateProvider purges every entry pinned to the given (dead)
// middlebox: flows re-establish via a backup at once instead of waiting
// for the TTL, and label entries whose chain continued there — labeled
// packets sent toward a backup would miss anyway — make way for the
// re-tunneled flow.
func (st *store[K, V]) InvalidateProvider(mb topo.NodeID) int {
	return st.purge(true, math.MinInt64, func(_ *shard[K, V], e *slot[K, V]) bool {
		return e.flags&flagPinned != 0 && topo.NodeID(e.nextHop) == mb
	})
}

// purge removes every record last hit before the given tick or selected by
// drop (if not nil), and counts them Invalidated (or Expired). Each shard,
// under its lock alone, takes two passes, both in memory order: one over
// the slab releases the selected slots and marks them due, one over the
// index drops their cells. No probe starts from a key: a removal costs no
// random read into the index. Sweep's test is inline, not a call per slot.
// It allocates nothing once the free lists and the due bitmap have grown.
func (st *store[K, V]) purge(invalidated bool, before int64, drop func(*shard[K, V], *slot[K, V]) bool) int {
	n := 0
	for si := range st.shards {
		s := &st.shards[si]
		s.mu.Lock()
		words := (len(s.chunks)<<chunkBits + 64) >> 6
		s.due = slices.Grow(s.due[:0], words)[:words]
		clear(s.due)
		k := 0
		for c, chunk := range s.chunks {
			for j := range chunk {
				if e := &chunk[j]; e.flags&flagLive != 0 && (e.lastHit < before || drop != nil && drop(s, e)) {
					i := uint32(c<<chunkBits | j)
					s.release(i)
					s.due[(i+1)>>6] |= 1 << ((i + 1) & 63)
					k++
				}
			}
		}
		if k > 0 {
			s.unlinkDue()
		}
		if n += k; invalidated {
			s.stats.Invalidated += k
		} else {
			s.stats.Expired += k
		}
		s.mu.Unlock()
	}
	return n
}

// Sweep removes all expired entries and returns how many it evicted;
// nodes run it periodically so idle flows do not accumulate. It returns at
// once when the table has no TTL.
func (st *store[K, V]) Sweep(now int64) int {
	if st.ttl <= 0 {
		return 0
	}
	return st.purge(false, now-st.ttl, nil)
}

// Shards returns the shard count.
func (st *store[K, V]) Shards() int { return len(st.shards) }

// ShardLen returns the entry count of shard i (occupancy gauges read it).
func (st *store[K, V]) ShardLen(i int) int {
	s := &st.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used
}

// Len returns the number of stored entries, including expired ones not
// yet swept.
func (st *store[K, V]) Len() int {
	n := 0
	for i := range st.shards {
		n += st.ShardLen(i)
	}
	return n
}

// Stats returns the activity counters summed over all shards.
func (st *store[K, V]) Stats() Stats {
	var out Stats
	for i := range st.shards {
		s := &st.shards[i]
		s.mu.Lock()
		out.add(s.stats)
		s.mu.Unlock()
	}
	return out
}

// interner maps action lists to small indices by content, so a slot holds
// a uint32 instead of a slice header. Index 0 is the empty list, i is
// lists[i-1]. Lists are copied in and never dropped: a shard sees no more
// distinct lists than the chains its node's policies have named. The zero
// value is ready: a table's shards allocate nothing until used.
type interner struct {
	lists []policy.ActionList
	index map[string]uint32
	key   []byte // scratch: the list being looked up, encoded
}

func (in *interner) list(i uint32) policy.ActionList {
	if i == 0 {
		return nil
	}
	return in.lists[i-1]
}

func (in *interner) id(a policy.ActionList) uint32 {
	if len(a) == 0 {
		return 0
	}
	in.key = in.key[:0]
	for _, f := range a {
		in.key = binary.AppendVarint(in.key, int64(f))
	}
	i, ok := in.index[string(in.key)]
	if !ok {
		if in.index == nil {
			in.index = make(map[string]uint32)
		}
		in.lists = append(in.lists, slices.Clone(a))
		i = uint32(len(in.lists))
		in.index[string(in.key)] = i
	}
	return i
}

// The labels a flow table's shard owns are the arithmetic progression
// nextLabel, nextLabel+stride, … ≤ 0xffff, plus a free list of labels
// released with their entries, so allocation is O(1) and — once the free
// list has grown — allocation-free.
func (s *shard[K, V]) getLabel() uint16 {
	if n := len(s.freeLabels) - 1; n >= 0 {
		l := s.freeLabels[n]
		s.freeLabels = s.freeLabels[:n]
		return l
	}
	if s.nextLabel > 0xffff {
		return 0
	}
	l := uint16(s.nextLabel)
	s.nextLabel += s.stride
	return l
}

func (s *shard[K, V]) putLabel(l uint16) {
	if l != 0 {
		s.freeLabels = append(s.freeLabels, l)
	}
}
