package flowtable

// Race stress for the sharded tables (run under -race via `make
// race-stress`): 8 goroutines hammer one table while a sweeper expires and
// invalidates concurrently. The invariants checked at every quiesce point
// are the two the dataplane depends on: live tunnel IDs are never issued
// twice, and an invalidated entry never resurrects. TestSweepAllocFree and
// TestChurnAllocFree guard the free lists: steady-state sweeps, and whole
// insert/label/sweep cycles, perform zero heap allocations.
// TestSlotsArePointerFree guards why the slots exist: nothing in them for
// the garbage collector to scan.

import (
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"sdme/internal/netaddr"
	"sdme/internal/policy"
	"sdme/internal/topo"
)

func stressFlow(i int) netaddr.FiveTuple {
	return netaddr.FiveTuple{
		Src: netaddr.Addr(0x0ac80000 + i), Dst: netaddr.Addr(0x0ac90000 + i%9),
		SrcPort: uint16(30000 + i), DstPort: 443, Proto: netaddr.ProtoTCP,
	}
}

// ghostFlow is a flow no goroutine ever inserts: FlagLabelSwitched on it
// must always report false and must never create an entry.
func ghostFlow(i int) netaddr.FiveTuple {
	return netaddr.FiveTuple{
		Src: netaddr.Addr(0x0bff0000 + i), Dst: netaddr.Addr(0x0bfe0000),
		SrcPort: uint16(40000 + i), DstPort: 443, Proto: netaddr.ProtoUDP,
	}
}

func TestStressShardedTableRace(t *testing.T) {
	const (
		goroutines  = 8
		rounds      = 3
		opsPerGoro  = 2000
		universe    = 64
		ghosts      = 8
		sweeperIter = 200
	)
	actions := policy.ActionList{policy.FuncFW}
	tbl := NewTableSharded(1<<20, 64)
	var now int64 // advanced atomically by every participant

	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(round*100 + g)))
				for i := 0; i < opsPerGoro; i++ {
					ts := atomic.AddInt64(&now, 1)
					ft := stressFlow(rng.Intn(universe))
					if _, ok := tbl.Lookup(ft, ts); !ok {
						tbl.Insert(ft, rng.Intn(8), actions, ts)
					}
					tbl.AllocLabel(ft)
					if rng.Intn(4) == 0 {
						tbl.SetHop(ft, Hop{NextHop: topo.NodeID(rng.Intn(3) + 1), Pinned: true})
					}
					if rng.Intn(8) == 0 {
						tbl.FlagLabelSwitched(ft, ts)
					}
					if tbl.FlagLabelSwitched(ghostFlow(rng.Intn(ghosts)), ts) {
						t.Error("FlagLabelSwitched created or revived a never-inserted flow")
						return
					}
				}
			}(g)
		}
		// Sweeper: expiry storms plus targeted invalidation, racing the
		// workers above.
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(9000 + round)))
			for i := 0; i < sweeperIter; i++ {
				switch rng.Intn(3) {
				case 0: // expire everything inserted so far
					tbl.Sweep(atomic.LoadInt64(&now) + 1<<21)
				case 1:
					pid := rng.Intn(8)
					tbl.InvalidateIf(func(e Entry) bool { return e.PolicyID == pid })
				default:
					mb := topo.NodeID(rng.Intn(3) + 1)
					tbl.InvalidateProvider(mb)
				}
			}
		}()
		wg.Wait()

		// Quiesce-point invariants: every live label is unique, and no
		// ghost flow materialized.
		ts := atomic.AddInt64(&now, 1)
		seen := make(map[uint16]netaddr.FiveTuple)
		for i := 0; i < universe; i++ {
			ft := stressFlow(i)
			e, ok := tbl.Lookup(ft, ts)
			if !ok || e.Label == 0 {
				continue
			}
			if prev, dup := seen[e.Label]; dup {
				t.Fatalf("round %d: duplicate tunnel ID %d on %v and %v", round, e.Label, prev, ft)
			}
			seen[e.Label] = ft
		}
		for i := 0; i < ghosts; i++ {
			if _, ok := tbl.Lookup(ghostFlow(i), ts); ok {
				t.Fatalf("round %d: ghost flow %d resurrected", round, i)
			}
		}
	}

	// Invalidate-all must leave nothing behind, and nothing may come back.
	tbl.InvalidateIf(func(Entry) bool { return true })
	if n := tbl.Len(); n != 0 {
		t.Fatalf("Len = %d after invalidate-all", n)
	}
	ts := atomic.AddInt64(&now, 1)
	for i := 0; i < universe; i++ {
		if _, ok := tbl.Lookup(stressFlow(i), ts); ok {
			t.Fatalf("flow %d resurrected after invalidate-all", i)
		}
	}
	// Free-list integrity after the storm: a full universe of fresh
	// allocations still yields pairwise-distinct non-zero labels.
	labels := make(map[uint16]bool)
	for i := 0; i < universe; i++ {
		tbl.Insert(stressFlow(i), 1, actions, ts)
		l := tbl.AllocLabel(stressFlow(i))
		if l == 0 {
			t.Fatalf("allocator exhausted after stress (flow %d)", i)
		}
		if labels[l] {
			t.Fatalf("duplicate tunnel ID %d issued after stress", l)
		}
		labels[l] = true
	}
}

func TestStressShardedLabelTableRace(t *testing.T) {
	const (
		goroutines  = 8
		opsPerGoro  = 2000
		universe    = 64
		sweeperIter = 200
	)
	actions := policy.ActionList{policy.FuncIDS}
	tbl := NewLabelTableSharded(1<<20, 64)
	var now int64
	key := func(i int) LabelKey {
		return LabelKey{Src: netaddr.Addr(0x0a330000 + i%7), Label: uint16(500 + i)}
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < opsPerGoro; i++ {
				ts := atomic.AddInt64(&now, 1)
				k := key(rng.Intn(universe))
				if _, ok := tbl.Lookup(k, ts); !ok {
					if rng.Intn(2) == 0 {
						tbl.Insert(k, rng.Intn(8), actions, stressFlow(i%universe), ts)
					} else {
						tbl.InsertTail(k, rng.Intn(8), actions, stressFlow(i%universe), ts)
					}
				}
				if rng.Intn(4) == 0 {
					tbl.SetHop(k, Hop{NextHop: topo.NodeID(rng.Intn(3) + 1), Pinned: true})
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(77))
		for i := 0; i < sweeperIter; i++ {
			if rng.Intn(2) == 0 {
				tbl.Sweep(atomic.LoadInt64(&now) + 1<<21)
			} else {
				mb := topo.NodeID(rng.Intn(3) + 1)
				tbl.InvalidateProvider(mb)
			}
		}
	}()
	wg.Wait()

	tbl.InvalidateIf(func(LabelEntry) bool { return true })
	if n := tbl.Len(); n != 0 {
		t.Fatalf("LabelTable Len = %d after invalidate-all", n)
	}
	ts := atomic.AddInt64(&now, 1)
	for i := 0; i < universe; i++ {
		if _, ok := tbl.Lookup(key(i), ts); ok {
			t.Fatalf("label entry %d resurrected after invalidate-all", i)
		}
	}
}

// TestSweepAllocFree pins the Sweep allocation fix: once the per-shard
// free lists have grown to working-set capacity, sweeping expired entries
// performs zero heap allocations (no whole-table inUse map, no free-list
// growth). Entries are inserted in staggered generations so the warm-up
// call AllocsPerRun makes plus each measured run all expire a non-empty
// generation.
func TestSweepAllocFree(t *testing.T) {
	const (
		runs    = 3
		gens    = runs + 1 // AllocsPerRun calls f once extra to warm up
		perGen  = 256
		ttl     = 500
		genStep = 1000
	)
	actions := policy.ActionList{policy.FuncFW}
	tbl := NewTableSharded(ttl, 16)
	flowAt := func(gen, i int) netaddr.FiveTuple { return stressFlow(gen*perGen + i) }

	// Pass 1: grow every shard's slab, index, free lists and due bitmap to
	// full working-set capacity, then release everything. Growth
	// allocations land here.
	for gen := 0; gen < gens; gen++ {
		for i := 0; i < perGen; i++ {
			tbl.Insert(flowAt(gen, i), 1, actions, 0)
			tbl.AllocLabel(flowAt(gen, i))
		}
	}
	if n := tbl.Sweep(1 << 30); n != gens*perGen {
		t.Fatalf("warm-up sweep expired %d, want %d", n, gens*perGen)
	}

	// Pass 2: repopulate in staggered generations; labels now come from the
	// warmed free lists.
	for gen := 0; gen < gens; gen++ {
		for i := 0; i < perGen; i++ {
			tbl.Insert(flowAt(gen, i), 1, actions, int64(gen*genStep))
			if tbl.AllocLabel(flowAt(gen, i)) == 0 {
				t.Fatal("allocator exhausted during setup")
			}
		}
	}

	gen := 0
	swept := 0
	avg := testing.AllocsPerRun(runs, func() {
		// Expire exactly generation gen: its lastHit is gen*genStep, and
		// later generations are still inside their TTL at this timestamp.
		swept = tbl.Sweep(int64(gen*genStep + ttl + 1))
		gen++
	})
	if swept != perGen {
		t.Fatalf("final measured sweep expired %d, want %d", swept, perGen)
	}
	if avg != 0 {
		t.Fatalf("Sweep allocates %.1f objects per run in steady state, want 0", avg)
	}
}

// TestChurnAllocFree extends TestSweepAllocFree to the whole churn cycle
// on both tables: once warm, inserting fresh flows, labelling them and
// sweeping the oldest at a stable population allocates nothing — the freed
// slots and labels are what the next flows take, and the index maps stay at
// their working-set size.
func TestChurnAllocFree(t *testing.T) {
	const (
		perGen  = 512
		keep    = 4 // generations alive after each sweep
		genStep = 1000
		ttl     = keep*genStep - genStep/2
		opsPer  = 3*perGen + 2 // per cycle: inserts, labels, label inserts, two sweeps
	)
	actions := policy.ActionList{policy.FuncFW, policy.FuncIDS}
	flows := NewTableSharded(ttl, 16)
	labels := NewLabelTableSharded(ttl, 16)
	gen := 0
	cycle := func() {
		now := int64(gen * genStep)
		for i := 0; i < perGen; i++ {
			ft := stressFlow(gen*perGen + i)
			flows.Insert(ft, 1, actions, now)
			flows.AllocLabel(ft)
			labels.Insert(LabelKey{Src: ft.Src, Label: uint16(i + 1)}, 1, actions, ft, now)
		}
		if gen >= keep {
			if n := flows.Sweep(now); n != perGen {
				t.Fatalf("generation %d: flow sweep expired %d, want %d", gen, n, perGen)
			}
			if n := labels.Sweep(now); n != perGen {
				t.Fatalf("generation %d: label sweep expired %d, want %d", gen, n, perGen)
			}
		}
		gen++
	}
	for gen < 64 {
		cycle()
	}
	const runs = 50
	if avg := testing.AllocsPerRun(runs, cycle); avg != 0 {
		t.Fatalf("churn allocates %.0f objects per cycle of %d operations, want 0", avg, opsPer)
	}
	if n := flows.Len(); n != keep*perGen {
		t.Fatalf("flow population %d, want %d", n, keep*perGen)
	}
}

// TestSlotsArePointerFree guards the reason the slots exist: no pointer
// kind anywhere in a slot, so the slabs are memory the garbage collector
// never marks. A field that needs one belongs in the interner, referenced
// by index.
func TestSlotsArePointerFree(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf(flowSlot{}), reflect.TypeOf(labelSlot{})} {
		if path, ok := pointerIn(typ, typ.String()); ok {
			t.Errorf("%s holds a pointer kind at %s", typ, path)
		}
	}
}

// TestSlotSizes guards the slab's footprint: the stored next hop (address
// and generation) rides in the bytes the 32-bit policy and node IDs left
// free, so a flow slot stays 48 bytes and a label slot 56.
func TestSlotSizes(t *testing.T) {
	if got := unsafe.Sizeof(flowSlot{}); got != 48 {
		t.Errorf("flow slot is %d bytes, want 48", got)
	}
	if got := unsafe.Sizeof(labelSlot{}); got != 56 {
		t.Errorf("label slot is %d bytes, want 56", got)
	}
}

func pointerIn(typ reflect.Type, path string) (string, bool) {
	switch typ.Kind() {
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if p, ok := pointerIn(f.Type, path+"."+f.Name); ok {
				return p, true
			}
		}
	case reflect.Array:
		return pointerIn(typ.Elem(), path+"[]")
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.Chan, reflect.Func, reflect.Interface, reflect.String:
		return path, true
	}
	return "", false
}

// BenchmarkSweep reports the per-entry cost of a sweep in two shapes:
// idle, where none of the live entries is due (a pure scan), and churn,
// where each sweep finds due entries among the live ones and removes them
// while fresh flows refill the table to the same population.
func BenchmarkSweep(b *testing.B) {
	const (
		live = 4096
		due  = 512
	)
	actions := policy.ActionList{policy.FuncFW}
	b.Run("idle", func(b *testing.B) {
		tbl := NewTableSharded(1<<20, 64)
		for i := 0; i < live; i++ {
			tbl.Insert(stressFlow(i), 1, actions, 0)
			tbl.AllocLabel(stressFlow(i))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tbl.Sweep(1) // nothing expires
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*live), "ns/entry")
	})
	b.Run("churn", func(b *testing.B) {
		// Generations of due flows, stamped one tick apart: at tick g the
		// sweep expires generation g-live/due exactly.
		const gens = live / due
		tbl := NewTableSharded(gens-1, 64)
		next := 0
		fill := func(now int64) {
			for i := 0; i < due; i++ {
				tbl.Insert(stressFlow(next), 1, actions, now)
				tbl.AllocLabel(stressFlow(next))
				next++
			}
		}
		for g := 0; g < gens; g++ {
			fill(int64(g))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			now := int64(gens + i)
			if n := tbl.Sweep(now); n != due {
				b.Fatalf("sweep expired %d, want %d", n, due)
			}
			b.StopTimer()
			fill(now)
			b.StartTimer()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*live), "ns/entry")
	})
}

func BenchmarkAllocLabel(b *testing.B) {
	actions := policy.ActionList{policy.FuncFW}
	tbl := NewTableSharded(1<<20, 64)
	ft := stressFlow(0)
	tbl.Insert(ft, 1, actions, 0)
	s, tag := tbl.locate(flowHash(ft))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := tbl.AllocLabel(ft)
		if l == 0 {
			b.Fatal("exhausted")
		}
		// Recycle through the shard free list so the cycle is sustainable
		// at any b.N — this measures the full alloc/release round trip.
		s.mu.Lock()
		s.putLabel(l)
		s.get(ft, tag).label = 0
		s.mu.Unlock()
	}
}
