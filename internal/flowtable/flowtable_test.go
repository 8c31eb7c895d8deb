package flowtable

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sdme/internal/netaddr"
	"sdme/internal/policy"
	"sdme/internal/topo"
)

func ft(n uint32) netaddr.FiveTuple {
	return netaddr.FiveTuple{
		Src: netaddr.Addr(n), Dst: netaddr.Addr(n + 1),
		SrcPort: uint16(n), DstPort: 80, Proto: netaddr.ProtoTCP,
	}
}

var actFWIDS = policy.ActionList{policy.FuncFW, policy.FuncIDS}

func TestInsertLookup(t *testing.T) {
	tbl := NewTable(100)
	if _, ok := tbl.Lookup(ft(1), 0); ok {
		t.Fatal("lookup on empty table should miss")
	}
	tbl.Insert(ft(1), 7, actFWIDS, 0)
	e, ok := tbl.Lookup(ft(1), 10)
	if !ok || e.PolicyID != 7 || !e.Actions.Equal(actFWIDS) || e.Null {
		t.Fatalf("entry = %+v, ok=%v", e, ok)
	}
	s := tbl.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Inserted != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestNullEntry(t *testing.T) {
	tbl := NewTable(100)
	tbl.InsertNull(ft(2), 0)
	e, ok := tbl.Lookup(ft(2), 5)
	if !ok || !e.Null {
		t.Fatalf("null entry = %+v, ok=%v", e, ok)
	}
	if tbl.Stats().NullHits != 1 || tbl.Stats().Hits != 0 {
		t.Errorf("stats = %+v", tbl.Stats())
	}
}

func TestTTLExpiry(t *testing.T) {
	tbl := NewTable(100)
	tbl.Insert(ft(1), 1, actFWIDS, 0)
	if _, ok := tbl.Lookup(ft(1), 100); !ok {
		t.Fatal("entry at exactly TTL should live")
	}
	// Lookup refreshed lastHit to 100, so the entry lives until 200.
	if _, ok := tbl.Lookup(ft(1), 201); ok {
		t.Fatal("entry should expire 100 ticks after last hit")
	}
	if tbl.Len() != 0 {
		t.Error("expired entry should be deleted on lookup")
	}
	if tbl.Stats().Expired != 1 {
		t.Errorf("stats = %+v", tbl.Stats())
	}
}

func TestTTLDisabled(t *testing.T) {
	tbl := NewTable(0)
	tbl.Insert(ft(1), 1, actFWIDS, 0)
	if _, ok := tbl.Lookup(ft(1), 1<<60); !ok {
		t.Error("ttl<=0 must disable expiry")
	}
}

func TestSweep(t *testing.T) {
	tbl := NewTable(10)
	for i := uint32(0); i < 5; i++ {
		tbl.Insert(ft(i), int(i), actFWIDS, int64(i))
	}
	// At now=12, entries with lastHit 0 and 1 are expired (>10 old).
	if n := tbl.Sweep(12); n != 2 {
		t.Errorf("Sweep evicted %d, want 2", n)
	}
	if tbl.Len() != 3 {
		t.Errorf("Len = %d, want 3", tbl.Len())
	}
}

func TestAllocLabelUnique(t *testing.T) {
	tbl := NewTable(0)
	seen := map[uint16]bool{}
	for i := uint32(0); i < 1000; i++ {
		tbl.Insert(ft(i), 0, actFWIDS, 0)
		l := tbl.AllocLabel(ft(i))
		if l == 0 {
			t.Fatal("label allocation failed")
		}
		if seen[l] {
			t.Fatalf("duplicate label %d", l)
		}
		seen[l] = true
	}
}

func TestAllocLabelIdempotent(t *testing.T) {
	tbl := NewTable(0)
	tbl.Insert(ft(1), 0, actFWIDS, 0)
	l1 := tbl.AllocLabel(ft(1))
	l2 := tbl.AllocLabel(ft(1))
	if l1 != l2 {
		t.Errorf("AllocLabel not idempotent: %d then %d", l1, l2)
	}
	if e, _ := tbl.Lookup(ft(1), 0); e.Label != l1 {
		t.Errorf("entry label %d, allocated %d", e.Label, l1)
	}
	if l := tbl.AllocLabel(ft(2)); l != 0 {
		t.Errorf("AllocLabel of a flow with no entry = %d, want 0", l)
	}
}

func TestAllocLabelReusesAfterExpiry(t *testing.T) {
	tbl := NewTable(10)
	tbl.Insert(ft(1), 0, actFWIDS, 0)
	l := tbl.AllocLabel(ft(1))
	tbl.Sweep(100) // expire the flow
	tbl.Insert(ft(2), 0, actFWIDS, 100)
	if got := tbl.AllocLabel(ft(2)); got != l {
		t.Errorf("next allocation after expiry = %d, want the freed label %d", got, l)
	}
}

// TestOverwriteDropsOldLabel pins the hazard by-key access closes. An
// Insert over a live flow frees its label, and the shard hands it to the
// next flow that asks. A caller still holding the flow's old record would
// now carry another flow's label; the table instead gives the flow's
// current entry no label until AllocLabel gives it one of its own.
func TestOverwriteDropsOldLabel(t *testing.T) {
	tbl := NewTable(0)
	a, b := ft(1), ft(2)
	tbl.Insert(a, 1, actFWIDS, 0)
	old := tbl.AllocLabel(a)
	tbl.Insert(a, 2, actFWIDS, 1) // overwrite: old goes back to the free list
	tbl.Insert(b, 1, actFWIDS, 1)
	if got := tbl.AllocLabel(b); got != old {
		t.Fatalf("b got label %d, want the freed %d", got, old)
	}
	if e, ok := tbl.Lookup(a, 1); !ok || e.Label != 0 || e.PolicyID != 2 {
		t.Fatalf("overwritten flow = %+v (found %v), want policy 2 and no label", e, ok)
	}
	if la := tbl.AllocLabel(a); la == 0 || la == old {
		t.Fatalf("overwritten flow got label %d; %d belongs to the other flow", la, old)
	}
}

func TestFlagLabelSwitched(t *testing.T) {
	tbl := NewTable(100)
	if e := tbl.Insert(ft(1), 0, actFWIDS, 0); e.LabelSwitched {
		t.Fatal("fresh entry should not be label-switched")
	}
	if !tbl.FlagLabelSwitched(ft(1), 5) {
		t.Fatal("flagging existing flow should succeed")
	}
	if e, _ := tbl.Lookup(ft(1), 5); !e.LabelSwitched {
		t.Error("entry not flagged")
	}
	if tbl.FlagLabelSwitched(ft(99), 5) {
		t.Error("flagging unknown flow should fail")
	}
	// Flagging an expired flow fails too.
	tbl.Insert(ft(2), 0, actFWIDS, 0)
	if tbl.FlagLabelSwitched(ft(2), 500) {
		t.Error("flagging expired flow should fail")
	}
}

func TestLabelTableBasics(t *testing.T) {
	lt := NewLabelTable(100)
	k := LabelKey{Src: netaddr.MustParseAddr("10.1.0.5"), Label: 42}
	if _, ok := lt.Lookup(k, 0); ok {
		t.Fatal("empty table should miss")
	}
	lt.Insert(k, 3, actFWIDS, ft(1), 0)
	e, ok := lt.Lookup(k, 10)
	if !ok || e.PolicyID != 3 || e.HasDst {
		t.Fatalf("entry = %+v, ok=%v", e, ok)
	}

	// Tail entry carries the destination.
	k2 := LabelKey{Src: k.Src, Label: 43}
	dst := netaddr.MustParseAddr("8.8.8.8")
	lt.InsertTail(k2, 3, actFWIDS, netaddr.FiveTuple{Src: k.Src, Dst: dst}, 0)
	e2, ok := lt.Lookup(k2, 10)
	if !ok || !e2.HasDst || e2.Dst != dst {
		t.Fatalf("tail entry = %+v, ok=%v", e2, ok)
	}
	if lt.Len() != 2 {
		t.Errorf("Len = %d", lt.Len())
	}
}

func TestLabelTableKeyIsolation(t *testing.T) {
	// Same label from two different source proxies must not collide —
	// that is why the key is ⟨src | l⟩.
	lt := NewLabelTable(0)
	a := LabelKey{Src: netaddr.MustParseAddr("10.1.0.2"), Label: 7}
	b := LabelKey{Src: netaddr.MustParseAddr("10.2.0.2"), Label: 7}
	lt.Insert(a, 1, actFWIDS, ft(1), 0)
	lt.Insert(b, 2, policy.ActionList{policy.FuncIDS}, ft(2), 0)
	ea, _ := lt.Lookup(a, 0)
	eb, _ := lt.Lookup(b, 0)
	if ea.PolicyID == eb.PolicyID {
		t.Error("entries for different sources collided")
	}
}

func TestLabelTableExpiry(t *testing.T) {
	lt := NewLabelTable(50)
	k := LabelKey{Src: 1, Label: 1}
	lt.Insert(k, 0, actFWIDS, ft(1), 0)
	if _, ok := lt.Lookup(k, 100); ok {
		t.Error("expired label entry returned")
	}
	lt.Insert(k, 0, actFWIDS, ft(1), 100)
	if n := lt.Sweep(200); n != 1 {
		t.Errorf("Sweep = %d, want 1", n)
	}
	if lt.Stats().Expired != 2 {
		t.Errorf("stats = %+v", lt.Stats())
	}
}

func TestLookupRefreshProperty(t *testing.T) {
	// Property: a flow looked up at least every ttl ticks never expires.
	f := func(steps []uint8) bool {
		const ttl = 50
		tbl := NewTable(ttl)
		tbl.Insert(ft(1), 0, actFWIDS, 0)
		now := int64(0)
		for _, s := range steps {
			now += int64(s % ttl) // every gap < ttl
			if _, ok := tbl.Lookup(ft(1), now); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkFlowTableLookup(b *testing.B) {
	tbl := NewTable(1 << 40)
	for i := uint32(0); i < 10000; i++ {
		tbl.Insert(ft(i), int(i), actFWIDS, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tbl.Lookup(ft(uint32(i)%10000), int64(i)); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkLabelTableLookup(b *testing.B) {
	lt := NewLabelTable(1 << 40)
	for i := 0; i < 10000; i++ {
		lt.Insert(LabelKey{Src: netaddr.Addr(i), Label: uint16(i)}, i, actFWIDS, ft(uint32(i)), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := LabelKey{Src: netaddr.Addr(i % 10000), Label: uint16(i % 10000)}
		if _, ok := lt.Lookup(k, int64(i)); !ok {
			b.Fatal("miss")
		}
	}
}

func TestInvalidateProviderPurgesOnlyPinnedMatches(t *testing.T) {
	tbl := NewTable(0)
	for i, mb := range []topo.NodeID{5, 5, 6} {
		tbl.Insert(ft(uint32(i+1)), 1, actFWIDS, 0)
		tbl.SetHop(ft(uint32(i+1)), Hop{NextHop: mb, Pinned: true})
	}
	tbl.Insert(ft(4), 1, actFWIDS, 0) // never forwarded: unpinned
	tbl.InsertNull(ft(5), 0)

	if n := tbl.InvalidateProvider(5); n != 2 {
		t.Fatalf("invalidated %d, want 2", n)
	}
	if tbl.Len() != 3 {
		t.Errorf("len = %d, want 3", tbl.Len())
	}
	for _, gone := range []uint32{1, 2} {
		if _, ok := tbl.Lookup(ft(gone), 0); ok {
			t.Errorf("entry %d survived its provider's death", gone)
		}
	}
	for _, kept := range []uint32{3, 4, 5} {
		if _, ok := tbl.Lookup(ft(kept), 0); !ok {
			t.Errorf("unrelated entry %d was purged", kept)
		}
	}
	if tbl.Stats().Invalidated != 2 {
		t.Errorf("stats = %+v", tbl.Stats())
	}
	// Repeat purge is a no-op.
	if n := tbl.InvalidateProvider(5); n != 0 {
		t.Errorf("second purge removed %d", n)
	}
}

// TestHopReadsBack: the hop SetHop writes is the one Lookup returns,
// SetHop on a key with no entry creates none, and re-inserting the key
// clears it.
func TestHopReadsBack(t *testing.T) {
	first := Hop{NextHop: 7, HopAddr: 0x0a000007, Gen: 3, Pinned: true}
	later := Hop{NextHop: 8, HopAddr: 0x0a000008, Gen: 4}
	tbl := NewTable(0)
	if e := tbl.Insert(ft(1), 1, actFWIDS, 0); e.Hop != (Hop{}) {
		t.Fatalf("fresh entry has hop %+v", e.Hop)
	}
	tbl.SetHop(ft(1), first)
	if e, _ := tbl.Lookup(ft(1), 0); e.Hop != first {
		t.Fatalf("after SetHop: %+v, want %+v", e.Hop, first)
	}
	tbl.SetHop(ft(1), later)
	if e, _ := tbl.Lookup(ft(1), 0); e.Hop != later {
		t.Fatalf("after SetHop: %+v, want %+v", e.Hop, later)
	}
	tbl.SetHop(ft(2), first)
	if tbl.Len() != 1 {
		t.Fatalf("SetHop on a missing key inserted: len %d", tbl.Len())
	}
	tbl.Insert(ft(1), 1, actFWIDS, 0)
	if e, _ := tbl.Lookup(ft(1), 0); e.Hop != (Hop{}) {
		t.Fatalf("re-insert kept %+v", e.Hop)
	}

	lt := NewLabelTable(0)
	k := LabelKey{Src: 10, Label: 1}
	lt.Insert(k, 1, actFWIDS, ft(1), 0)
	lt.SetHop(k, first)
	if e, _ := lt.Lookup(k, 0); e.Hop != first {
		t.Fatalf("label entry after SetHop: %+v, want %+v", e.Hop, first)
	}
	lt.InsertTail(k, 1, actFWIDS, ft(1), 0)
	if e, _ := lt.Lookup(k, 0); e.Hop != (Hop{}) {
		t.Fatalf("label re-insert kept %+v", e.Hop)
	}
}

func TestInvalidateIfCustomPredicate(t *testing.T) {
	tbl := NewTable(0)
	tbl.Insert(ft(1), 1, actFWIDS, 0)
	tbl.FlagLabelSwitched(ft(1), 0)
	tbl.Insert(ft(2), 2, actFWIDS, 0)
	if n := tbl.InvalidateIf(func(e Entry) bool { return e.LabelSwitched }); n != 1 {
		t.Fatalf("invalidated %d, want 1", n)
	}
	if _, ok := tbl.Lookup(ft(1), 0); ok {
		t.Error("label-switched entry survived predicate purge")
	}
	if _, ok := tbl.Lookup(ft(2), 0); !ok {
		t.Error("non-matching entry purged")
	}
}

func TestLabelTableInvalidateProvider(t *testing.T) {
	tbl := NewLabelTable(0)
	k1 := LabelKey{Src: 10, Label: 1}
	k2 := LabelKey{Src: 10, Label: 2}
	k3 := LabelKey{Src: 11, Label: 1}
	tbl.Insert(k1, 1, actFWIDS, ft(1), 0)
	tbl.SetHop(k1, Hop{NextHop: 7, Pinned: true})
	tbl.Insert(k2, 1, actFWIDS, ft(2), 0)
	tbl.SetHop(k2, Hop{NextHop: 8, Pinned: true})
	tbl.InsertTail(k3, 1, actFWIDS, ft(3), 0) // tail: unpinned

	if n := tbl.InvalidateProvider(7); n != 1 {
		t.Fatalf("invalidated %d, want 1", n)
	}
	if _, ok := tbl.Lookup(k1, 0); ok {
		t.Error("entry chained through dead provider survived")
	}
	if _, ok := tbl.Lookup(k2, 0); !ok {
		t.Error("entry chained through live provider purged")
	}
	if _, ok := tbl.Lookup(k3, 0); !ok {
		t.Error("tail entry purged")
	}
	if tbl.Stats().Invalidated != 1 {
		t.Errorf("stats = %+v", tbl.Stats())
	}
}

// TestIndexSurvivesChurn drives one shard's open-addressing index through
// growth and thousands of removals — wrapped probe clusters, back-shifted
// cells — against a plain map, and checks every key and the slot
// accounting along the way.
func TestIndexSurvivesChurn(t *testing.T) {
	const universe = 3000
	rng := rand.New(rand.NewSource(1))
	tbl := NewTable(0)
	want := make(map[netaddr.FiveTuple]int)
	for round := 0; round < 20; round++ {
		for op := 0; op < 2000; op++ {
			f := ft(uint32(rng.Intn(universe)))
			if rng.Intn(3) == 0 {
				pid := rng.Intn(100)
				tbl.Insert(f, pid, actFWIDS, 0)
				want[f] = pid
			} else if pid, ok := want[f]; ok {
				if n := tbl.InvalidateIf(func(e Entry) bool { return e.Flow == f }); n != 1 {
					t.Fatalf("round %d: removing %v (policy %d) purged %d", round, f, pid, n)
				}
				delete(want, f)
			}
		}
		if tbl.Len() != len(want) {
			t.Fatalf("round %d: Len %d, want %d", round, tbl.Len(), len(want))
		}
		for i := 0; i < universe; i++ {
			f := ft(uint32(i))
			e, ok := tbl.Lookup(f, 0)
			if pid, in := want[f]; ok != in || ok && e.PolicyID != pid {
				t.Fatalf("round %d: %v found %v (%+v), want %v (policy %d)", round, f, ok, e, in, pid)
			}
		}
		if err := slotAccounting(&tbl.store); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}
