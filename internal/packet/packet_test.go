package packet

import (
	"errors"
	"testing"
	"testing/quick"

	"sdme/internal/netaddr"
)

func testTuple() netaddr.FiveTuple {
	return netaddr.FiveTuple{
		Src:     netaddr.MustParseAddr("10.1.0.5"),
		Dst:     netaddr.MustParseAddr("10.2.0.9"),
		SrcPort: 5555, DstPort: 80, Proto: netaddr.ProtoTCP,
	}
}

func TestNewAndSize(t *testing.T) {
	p := New(testTuple(), 1000)
	if p.Size() != HeaderLen+1000 {
		t.Errorf("Size = %d, want %d", p.Size(), HeaderLen+1000)
	}
	if p.IsEncapsulated() {
		t.Error("fresh packet should not be encapsulated")
	}
	if p.FiveTuple() != testTuple() {
		t.Errorf("FiveTuple = %v", p.FiveTuple())
	}
	if p.Inner.TTL != DefaultTTL {
		t.Errorf("TTL = %d", p.Inner.TTL)
	}
}

func TestEncapDecap(t *testing.T) {
	p := New(testTuple(), 100)
	proxyAddr := netaddr.MustParseAddr("10.1.0.2")
	mbAddr := netaddr.MustParseAddr("172.31.0.1")

	if err := p.Encapsulate(proxyAddr, mbAddr); err != nil {
		t.Fatalf("Encapsulate: %v", err)
	}
	if p.Size() != 2*HeaderLen+100 {
		t.Errorf("encapsulated size = %d, want %d", p.Size(), 2*HeaderLen+100)
	}
	if p.OutermostDst() != mbAddr {
		t.Errorf("OutermostDst = %v, want %v", p.OutermostDst(), mbAddr)
	}
	if p.Outer.Proto != ProtoIPIP {
		t.Errorf("outer proto = %d, want %d", p.Outer.Proto, ProtoIPIP)
	}
	// The inner flow identity is preserved.
	if p.FiveTuple() != testTuple() {
		t.Error("encapsulation must not disturb the inner 5-tuple")
	}
	// No tunnel stacking.
	if err := p.Encapsulate(proxyAddr, mbAddr); !errors.Is(err, ErrAlreadyEncapsulated) {
		t.Errorf("double encap error = %v", err)
	}

	h, err := p.Decapsulate()
	if err != nil {
		t.Fatalf("Decapsulate: %v", err)
	}
	if h.Src != proxyAddr || h.Dst != mbAddr {
		t.Errorf("stripped header = %+v", h)
	}
	if p.IsEncapsulated() {
		t.Error("still encapsulated after Decapsulate")
	}
	if _, err := p.Decapsulate(); !errors.Is(err, ErrNotEncapsulated) {
		t.Errorf("double decap error = %v", err)
	}
}

func TestOutermostDstPlain(t *testing.T) {
	p := New(testTuple(), 10)
	if p.OutermostDst() != testTuple().Dst {
		t.Error("plain packet outermost dst should be inner dst")
	}
	if p.OutermostHeader() != &p.Inner {
		t.Error("plain packet outermost header should be inner")
	}
}

func TestLabelRoundTrip(t *testing.T) {
	f := func(label uint16) bool {
		if label == 0 {
			return true
		}
		p := New(testTuple(), 64)
		if err := p.EmbedLabel(label); err != nil {
			return false
		}
		return p.Label() == label
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLabelRules(t *testing.T) {
	p := New(testTuple(), 64)
	if err := p.EmbedLabel(0); err == nil {
		t.Error("label 0 must be rejected")
	}
	if p.Label() != 0 {
		t.Errorf("unlabeled packet Label() = %d", p.Label())
	}
	if err := p.EmbedLabel(0x1234); err != nil {
		t.Fatal(err)
	}
	// Re-embedding overwrites.
	if err := p.EmbedLabel(0x00ff); err != nil {
		t.Fatal(err)
	}
	if p.Label() != 0x00ff {
		t.Errorf("Label = %#x, want 0x00ff", p.Label())
	}
	p.ClearLabel()
	if p.Label() != 0 {
		t.Error("ClearLabel failed")
	}

	// DF survives labeling.
	p2 := New(testTuple(), 64)
	p2.Inner.frag |= flagDF
	if err := p2.EmbedLabel(7); err != nil {
		t.Fatal(err)
	}
	if p2.Inner.frag&flagDF == 0 {
		t.Error("DF flag lost by EmbedLabel")
	}
	p2.ClearLabel()
	if p2.Inner.frag&flagDF == 0 {
		t.Error("DF flag lost by ClearLabel")
	}
}

func TestLabelRefusedMidFragment(t *testing.T) {
	p := New(testTuple(), 64)
	p.Inner.frag |= flagMF
	if err := p.EmbedLabel(5); err == nil {
		t.Error("labeling an MF fragment must fail")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	p := New(testTuple(), 5)
	p.Payload = []byte("hello")
	if err := p.EmbedLabel(0x0a0b); err != nil {
		t.Fatal(err)
	}
	if err := p.Encapsulate(netaddr.MustParseAddr("10.1.0.2"), netaddr.MustParseAddr("172.31.0.3")); err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Outer == nil || *got.Outer != *p.Outer {
		t.Errorf("outer header mismatch: %+v vs %+v", got.Outer, p.Outer)
	}
	if got.Inner != p.Inner {
		t.Errorf("inner header mismatch: %+v vs %+v", got.Inner, p.Inner)
	}
	if string(got.Payload) != "hello" || got.PayloadLen != 5 {
		t.Errorf("payload mismatch: %q len %d", got.Payload, got.PayloadLen)
	}
	if got.Label() != 0x0a0b {
		t.Errorf("label lost: %#x", got.Label())
	}
}

func TestMarshalRoundTripProperty(t *testing.T) {
	f := func(src, dst uint32, sp, dp uint16, proto uint8, payload []byte, outer bool) bool {
		p := New(netaddr.FiveTuple{
			Src: netaddr.Addr(src), Dst: netaddr.Addr(dst),
			SrcPort: sp, DstPort: dp, Proto: proto,
		}, len(payload))
		p.Payload = payload
		if outer {
			if err := p.Encapsulate(netaddr.Addr(dst), netaddr.Addr(src)); err != nil {
				return false
			}
		}
		got, err := Unmarshal(p.Marshal())
		if err != nil {
			return false
		}
		if got.Inner != p.Inner || got.PayloadLen != len(payload) {
			return false
		}
		if outer != (got.Outer != nil) {
			return false
		}
		for i := range payload {
			if got.Payload[i] != payload[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Error("nil wire should fail")
	}
	if _, err := Unmarshal(make([]byte, 10)); err == nil {
		t.Error("short wire should fail")
	}
	// Flag claims an outer header that isn't there.
	short := make([]byte, 1+HeaderLen+4)
	short[0] = wireFlagOuter
	if _, err := Unmarshal(short); err == nil {
		t.Error("missing outer header should fail")
	}
	// Payload length field larger than the buffer.
	p := New(testTuple(), 3)
	p.Payload = []byte{1, 2, 3}
	w := p.Marshal()
	w[1+HeaderLen+2] = 0xff // corrupt payload length
	if _, err := Unmarshal(w); err == nil {
		t.Error("truncated payload should fail")
	}
}

func TestClone(t *testing.T) {
	p := New(testTuple(), 4)
	p.Payload = []byte{1, 2, 3, 4}
	if err := p.Encapsulate(1, 2); err != nil {
		t.Fatal(err)
	}
	c := p.Clone()
	c.Outer.Dst = 99
	c.Payload[0] = 77
	c.Inner.TTL = 1
	if p.Outer.Dst == 99 || p.Payload[0] == 77 || p.Inner.TTL == 1 {
		t.Error("Clone must deep-copy")
	}
}

func TestStringForms(t *testing.T) {
	p := New(testTuple(), 10)
	if s := p.String(); s == "" {
		t.Error("empty String()")
	}
	if err := p.Encapsulate(1, 2); err != nil {
		t.Fatal(err)
	}
	if s := p.String(); s == "" {
		t.Error("empty encapsulated String()")
	}
}

func BenchmarkMarshalUnmarshal(b *testing.B) {
	p := New(testTuple(), 64)
	p.Payload = make([]byte, 64)
	if err := p.Encapsulate(1, 2); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := p.Marshal()
		if _, err := Unmarshal(w); err != nil {
			b.Fatal(err)
		}
	}
}
