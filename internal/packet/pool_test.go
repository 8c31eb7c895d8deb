package packet

import (
	"testing"

	"sdme/internal/netaddr"
)

func TestPoolLifecycle(t *testing.T) {
	p := Get()
	if p == nil {
		t.Fatal("Get returned nil")
	}
	ft := netaddr.FiveTuple{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Proto: netaddr.ProtoTCP}
	p.Inner = Header{Src: ft.Src, Dst: ft.Dst, SrcPort: ft.SrcPort, DstPort: ft.DstPort, Proto: ft.Proto, TTL: 64}
	p.PayloadLen = 9
	p.Payload = append(p.Payload, []byte("forwarded")...)
	if err := p.Encapsulate(7, 8); err != nil {
		t.Fatal(err)
	}

	Put(p)
	q := Get()
	// The pool is a LIFO free list, so the same object comes back — and it
	// must come back reset.
	if q != p {
		t.Fatalf("expected pooled packet back, got a different object")
	}
	if q.Outer != nil || q.Inner != (Header{}) || q.PayloadLen != 0 || len(q.Payload) != 0 {
		t.Fatalf("pooled packet not reset: %+v", q)
	}
	Put(q)
}

func TestPoolStatsCount(t *testing.T) {
	h0, m0 := PoolStats()
	p := Get()
	Put(p)
	Get()
	h1, m1 := PoolStats()
	if h1+m1 <= h0+m0 {
		t.Fatalf("pool stats did not advance: before (%d,%d) after (%d,%d)", h0, m0, h1, m1)
	}
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
