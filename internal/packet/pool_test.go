package packet

import (
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"sdme/internal/netaddr"
)

// TestPoolLifecycle: whatever Get hands out comes back reset, however
// dirty it was Put. Which object comes back is the pool's business (under
// the race detector sync.Pool drops Puts at random);
// TestSteadyStateRoundTripAllocFree covers reuse.
func TestPoolLifecycle(t *testing.T) {
	ft := netaddr.FiveTuple{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Proto: netaddr.ProtoTCP}
	held := make([]*Packet, 64)
	for i := range held {
		p := Get()
		if p == nil {
			t.Fatal("Get returned nil")
		}
		p.Inner = Header{Src: ft.Src, Dst: ft.Dst, SrcPort: ft.SrcPort, DstPort: ft.DstPort, Proto: ft.Proto, TTL: 64}
		p.PayloadLen = 9
		p.Payload = append(p.Payload, []byte("forwarded")...)
		if err := p.Encapsulate(7, 8); err != nil {
			t.Fatal(err)
		}
		held[i] = p
	}
	for _, p := range held {
		Put(p)
	}
	for i := range held {
		q := Get()
		if q.Outer != nil || q.Inner != (Header{}) || q.outerBuf != (Header{}) || q.PayloadLen != 0 || len(q.Payload) != 0 {
			t.Fatalf("pooled packet not reset: %+v", q)
		}
		held[i] = q
	}
	for _, q := range held {
		Put(q)
	}
}

func TestPoolStatsCount(t *testing.T) {
	h0, m0 := PoolStats()
	u0 := PoolPuts()
	Put(Get())
	p := Get()
	h1, m1 := PoolStats()
	if gets, puts := h1+m1-h0-m0, PoolPuts()-u0; gets != 2 || puts != 1 {
		t.Fatalf("counted %d gets and %d puts, want 2 and 1", gets, puts)
	}
	Put(p)
}

// TestPoolConcurrentOwnership: goroutines on every P Get, stamp, yield,
// check and Put. No packet is owned by two of them at once, each comes out
// reset, and the counts conserve: every Get is one hit or one miss and is
// matched by one Put.
func TestPoolConcurrentOwnership(t *testing.T) {
	const workers, rounds = 8, 2000
	h0, m0 := PoolStats()
	u0 := PoolPuts()
	var owned sync.Map
	var wg sync.WaitGroup
	for w := 1; w <= workers; w++ {
		wg.Add(1)
		go func(stamp int) {
			defer wg.Done()
			for range rounds {
				p := Get()
				if other, dup := owned.LoadOrStore(p, stamp); dup {
					t.Errorf("worker %d got a packet worker %d still owns", stamp, other)
					return
				}
				if p.PayloadLen != 0 {
					t.Errorf("worker %d got a packet stamped %d", stamp, p.PayloadLen)
					return
				}
				p.PayloadLen = stamp
				runtime.Gosched()
				if p.PayloadLen != stamp {
					t.Errorf("worker %d's packet was restamped %d while it held it", stamp, p.PayloadLen)
					return
				}
				owned.Delete(p)
				Put(p)
			}
		}(w)
	}
	wg.Wait()
	h1, m1 := PoolStats()
	if gets, puts := h1+m1-h0-m0, PoolPuts()-u0; gets != workers*rounds || puts != gets {
		t.Fatalf("counted %d gets and %d puts, want %d of each", gets, puts, workers*rounds)
	}
}

// TestPoolKeepsPacketsThroughOneGC backs the choice of sync.Pool (DESIGN
// §12): a packet put back before a GC is served after it with no miss,
// from the victim cache, and packets idle across two GCs return to the
// heap. One P, so each Get looks where the Put left its packet, and no
// automatic GC, so the only cycles are the test's own.
func TestPoolKeepsPacketsThroughOneGC(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop Puts at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	Put(Get())
	runtime.GC()
	_, m0 := PoolStats()
	p := Get()
	if _, m1 := PoolStats(); m1 != m0 {
		t.Fatal("Get missed after one GC: the pooled packet was dropped")
	}
	Put(p)
	runtime.GC()
	runtime.GC()
	p = Get()
	if _, m2 := PoolStats(); m2 != m0+1 {
		t.Fatal("Get hit after two GCs: an idle packet outlived the retention bound")
	}
	Put(p)
}

func TestPutNilPacket(t *testing.T) {
	Put(nil) // must not panic
}

// TestSteadyStateRoundTripAllocFree proves the pooled
// unmarshal→encapsulate→marshal cycle — the live hot path, marshalling into
// a buffer the sender keeps — performs no heap allocation once the pool and
// the buffer are warm.
func TestSteadyStateRoundTripAllocFree(t *testing.T) {
	ft := netaddr.FiveTuple{Src: 10, Dst: 20, SrcPort: 1000, DstPort: 80, Proto: netaddr.ProtoUDP}
	seed := &Packet{Inner: Header{Src: ft.Src, Dst: ft.Dst, SrcPort: ft.SrcPort, DstPort: ft.DstPort, Proto: ft.Proto, TTL: 64}, PayloadLen: 4, Payload: []byte("data")}
	wire := seed.Marshal()

	Put(Get()) // warm the pool
	var out []byte

	avg := testing.AllocsPerRun(200, func() {
		p := Get()
		if err := UnmarshalInto(p, wire); err != nil {
			t.Fatal(err)
		}
		if err := p.Encapsulate(1, 2); err != nil {
			t.Fatal(err)
		}
		out = p.AppendMarshal(out[:0])
		if len(out) == 0 {
			t.Fatal("empty marshal")
		}
		Put(p)
	})
	if avg != 0 {
		t.Fatalf("steady-state round trip allocates %.1f allocs/op, want 0", avg)
	}
}

// BenchmarkGetPutParallel is the pool at its callers' parallelism: every
// P takes a packet and puts it back.
func BenchmarkGetPutParallel(b *testing.B) {
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			Put(Get())
		}
	})
}
