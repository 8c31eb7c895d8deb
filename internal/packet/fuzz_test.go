package packet

import (
	"testing"

	"sdme/internal/netaddr"
)

// FuzzUnmarshal hardens the wire parser the live runtime exposes to the
// network: arbitrary bytes must never panic, and anything that parses
// must re-marshal to an equivalent packet.
func FuzzUnmarshal(f *testing.F) {
	p := New(netaddr.FiveTuple{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Proto: 6}, 5)
	p.Payload = []byte("hello")
	f.Add(p.Marshal())
	if err := p.Encapsulate(9, 10); err != nil {
		f.Fatal(err)
	}
	f.Add(p.Marshal())
	f.Add([]byte{})
	f.Add([]byte{wireFlagOuter})
	f.Add(make([]byte, 1+HeaderLen+4))

	f.Fuzz(func(t *testing.T, data []byte) {
		pkt, err := Unmarshal(data)
		if err != nil {
			return
		}
		back, err := Unmarshal(pkt.Marshal())
		if err != nil {
			t.Fatalf("re-unmarshal of marshaled packet failed: %v", err)
		}
		if back.Inner != pkt.Inner {
			t.Fatalf("inner header changed across round trip: %+v vs %+v", back.Inner, pkt.Inner)
		}
		if (back.Outer == nil) != (pkt.Outer == nil) {
			t.Fatal("outer header presence changed across round trip")
		}
		if back.Outer != nil && *back.Outer != *pkt.Outer {
			t.Fatalf("outer header changed across round trip")
		}
		if back.PayloadLen != pkt.PayloadLen {
			t.Fatalf("payload length changed: %d vs %d", back.PayloadLen, pkt.PayloadLen)
		}
	})
}
