// Package packet models the packets that flow through the enforcement
// system: an IPv4-like header, IP-over-IP encapsulation for tunneling to
// middleboxes (§III-B of the paper), label embedding in the unused ToS and
// fragment-offset header fields (§III-E). The fragment field's flags
// travel on the wire so that labeling can refuse a fragment; the
// fragmentation label switching avoids is counted by the simulator's
// per-link MTU arithmetic (internal/sim), not by splitting packets here.
//
// The same types serve the discrete-event simulator (which mostly cares
// about sizes and headers) and the live UDP runtime (which marshals them
// onto real sockets).
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"

	"sdme/internal/netaddr"
)

// HeaderLen is the size of one IP header in bytes (no options).
const HeaderLen = 20

// ProtoIPIP is the protocol number of an encapsulated IP packet (RFC 2003).
const ProtoIPIP uint8 = 4

// Fragment-field flag bits, laid out as in IPv4: 3 flag bits then a
// 13-bit offset in 8-byte units.
const (
	flagDF      = 0x4000
	flagMF      = 0x2000
	fragOffMask = 0x1fff
)

// Header is an IPv4-like packet header with the transport ports folded in
// (the enforcement dataplane classifies on the 5-tuple, so keeping ports
// adjacent to addresses avoids a separate L4 struct everywhere).
type Header struct {
	Src, Dst         netaddr.Addr
	Proto            uint8
	SrcPort, DstPort uint16
	TOS              uint8
	TTL              uint8
	ID               uint16
	frag             uint16 // flags | 13-bit offset in 8-byte units
}

// DefaultTTL is the initial time-to-live of generated packets.
const DefaultTTL = 64

// MoreFragments reports the MF flag.
func (h *Header) MoreFragments() bool { return h.frag&flagMF != 0 }

// IsFragment reports whether this header belongs to any fragment of a
// fragmented packet (offset > 0 or MF set).
func (h *Header) IsFragment() bool {
	return h.frag&(flagMF|fragOffMask) != 0
}

// FiveTuple extracts the flow identifier from the header.
func (h *Header) FiveTuple() netaddr.FiveTuple {
	return netaddr.FiveTuple{
		Src: h.Src, Dst: h.Dst,
		SrcPort: h.SrcPort, DstPort: h.DstPort,
		Proto: h.Proto,
	}
}

// Packet is one packet in flight. When Outer is non-nil the packet is
// IP-over-IP encapsulated: Outer addresses steer it between middleboxes
// while Inner carries the original flow.
type Packet struct {
	Outer *Header
	Inner Header
	// PayloadLen is the L4 payload size in bytes; the simulator accounts
	// sizes with it. Payload optionally carries real bytes (live mode and
	// the payload-inspecting functions); when non-nil its length must
	// equal PayloadLen.
	PayloadLen int
	Payload    []byte
	// outerBuf is the inline backing store for Outer: Encapsulate and
	// UnmarshalInto point Outer at it instead of heap-allocating a Header
	// per tunnel hop, which keeps the steady-state dataplane path
	// allocation-free. Because Outer may alias this field, Packet must not
	// be copied by value — use Clone.
	outerBuf Header
}

// New builds an unencapsulated packet for a flow with the given payload
// size.
func New(ft netaddr.FiveTuple, payloadLen int) *Packet {
	return &Packet{
		Inner: Header{
			Src: ft.Src, Dst: ft.Dst,
			SrcPort: ft.SrcPort, DstPort: ft.DstPort,
			Proto: ft.Proto, TTL: DefaultTTL,
		},
		PayloadLen: payloadLen,
	}
}

// Size returns the total on-wire size in bytes: payload plus one header,
// plus a second header when encapsulated.
func (p *Packet) Size() int {
	n := HeaderLen + p.PayloadLen
	if p.Outer != nil {
		n += HeaderLen
	}
	return n
}

// IsEncapsulated reports whether an outer tunnel header is present.
func (p *Packet) IsEncapsulated() bool { return p.Outer != nil }

// OutermostDst returns the address routers actually forward on: the outer
// destination when tunneled, the inner one otherwise.
func (p *Packet) OutermostDst() netaddr.Addr {
	if p.Outer != nil {
		return p.Outer.Dst
	}
	return p.Inner.Dst
}

// OutermostHeader returns the header routers act on.
func (p *Packet) OutermostHeader() *Header {
	if p.Outer != nil {
		return p.Outer
	}
	return &p.Inner
}

// FiveTuple returns the inner (original flow) 5-tuple.
func (p *Packet) FiveTuple() netaddr.FiveTuple { return p.Inner.FiveTuple() }

// Clone deep-copies the packet.
func (p *Packet) Clone() *Packet {
	out := &Packet{Inner: p.Inner, PayloadLen: p.PayloadLen}
	if p.Outer != nil {
		out.outerBuf = *p.Outer
		out.Outer = &out.outerBuf
	}
	if p.Payload != nil {
		out.Payload = append([]byte(nil), p.Payload...)
	}
	return out
}

// ErrAlreadyEncapsulated is returned when tunneling an already tunneled
// packet; the paper's design never stacks tunnels (each middlebox
// decapsulates before re-tunneling).
var ErrAlreadyEncapsulated = errors.New("packet: already encapsulated")

// ErrNotEncapsulated is returned when decapsulating a plain packet.
var ErrNotEncapsulated = errors.New("packet: not encapsulated")

// Encapsulate adds an IP-over-IP outer header addressed src -> dst. Per
// §III-E the proxy's address is kept as the outer source along the whole
// chain so the tail middlebox knows where to send the control packet.
func (p *Packet) Encapsulate(src, dst netaddr.Addr) error {
	if p.Outer != nil {
		return ErrAlreadyEncapsulated
	}
	p.outerBuf = Header{Src: src, Dst: dst, Proto: ProtoIPIP, TTL: DefaultTTL}
	p.Outer = &p.outerBuf
	return nil
}

// Decapsulate strips the outer header, returning it.
func (p *Packet) Decapsulate() (Header, error) {
	if p.Outer == nil {
		return Header{}, ErrNotEncapsulated
	}
	h := *p.Outer
	p.Outer = nil
	return h, nil
}

// Labels are carried in otherwise-unused inner header fields: the high
// byte in TOS and the low byte in the low bits of the fragment-offset
// field (§III-E). Label 0 means "no label", so usable labels are 1..65535
// — but keeping the fragment field legal restricts the low byte to the
// 13-bit offset area; we use 8 of those bits.

// MaxLabel is the largest embeddable label.
const MaxLabel = 0xffff

// EmbedLabel writes a label into the inner header, overwriting any
// previous label. Because the fields are overloaded (that is the paper's
// point — no extra bytes on the wire), callers must only label packets
// they know are unfragmented; EmbedLabel refuses mid-stream fragments (MF
// set) as a safety net. The enforcement dataplane checks IsFragment
// before labeling the first packet of a flow, per §III-E.
func (p *Packet) EmbedLabel(label uint16) error {
	if label == 0 {
		return errors.New("packet: label 0 is reserved")
	}
	if p.Inner.MoreFragments() {
		return errors.New("packet: cannot embed label in a fragment")
	}
	p.Inner.TOS = uint8(label >> 8)
	p.Inner.frag = (p.Inner.frag & flagDF) | uint16(label&0xff)
	return nil
}

// Label reads the embedded label, 0 if none. The value is only meaningful
// on packets the dataplane addressed to a middlebox without an outer
// header — on any other packet these bits may be genuine ToS/fragment
// data. That context-dependence is inherent to the paper's field reuse.
func (p *Packet) Label() uint16 {
	if p.Inner.MoreFragments() {
		return 0
	}
	return uint16(p.Inner.TOS)<<8 | p.Inner.frag&0xff
}

// ClearLabel removes an embedded label.
func (p *Packet) ClearLabel() {
	p.Inner.TOS = 0
	p.Inner.frag &= flagDF
}

// --- Wire format ----------------------------------------------------------
//
// The live runtime moves packets between processes over UDP; each Packet
// marshals to: 1 flag byte (bit0: outer present), then one or two 20-byte
// headers, then a 4-byte payload length, then the payload bytes.

const wireFlagOuter = 0x01

func marshalHeader(b []byte, h *Header) {
	binary.BigEndian.PutUint32(b[0:], uint32(h.Src))
	binary.BigEndian.PutUint32(b[4:], uint32(h.Dst))
	b[8] = h.Proto
	b[9] = h.TOS
	b[10] = h.TTL
	b[11] = 0
	binary.BigEndian.PutUint16(b[12:], h.SrcPort)
	binary.BigEndian.PutUint16(b[14:], h.DstPort)
	binary.BigEndian.PutUint16(b[16:], h.ID)
	binary.BigEndian.PutUint16(b[18:], h.frag)
}

func unmarshalHeader(b []byte) Header {
	return Header{
		Src:     netaddr.Addr(binary.BigEndian.Uint32(b[0:])),
		Dst:     netaddr.Addr(binary.BigEndian.Uint32(b[4:])),
		Proto:   b[8],
		TOS:     b[9],
		TTL:     b[10],
		SrcPort: binary.BigEndian.Uint16(b[12:]),
		DstPort: binary.BigEndian.Uint16(b[14:]),
		ID:      binary.BigEndian.Uint16(b[16:]),
		frag:    binary.BigEndian.Uint16(b[18:]),
	}
}

// WireSize returns the marshaled length in bytes.
func (p *Packet) WireSize() int {
	n := 1 + HeaderLen + 4 + len(p.Payload)
	if p.Outer != nil {
		n += HeaderLen
	}
	return n
}

// AppendMarshal appends the wire encoding to dst and returns the extended
// slice. The hot path hands it a buffer the sender keeps, so steady-state
// sends allocate nothing; Marshal wraps it for callers that want a fresh
// slice.
func (p *Packet) AppendMarshal(dst []byte) []byte {
	start := len(dst)
	n := p.WireSize()
	if cap(dst)-start < n {
		grown := make([]byte, start, start+n)
		copy(grown, dst)
		dst = grown
	}
	out := dst[start : start+n]
	dst = dst[:start+n]
	out[0] = 0
	off := 1
	if p.Outer != nil {
		out[0] |= wireFlagOuter
		marshalHeader(out[off:], p.Outer)
		off += HeaderLen
	}
	marshalHeader(out[off:], &p.Inner)
	off += HeaderLen
	binary.BigEndian.PutUint32(out[off:], uint32(len(p.Payload)))
	off += 4
	copy(out[off:], p.Payload)
	return dst
}

// Marshal serializes the packet for the live runtime.
func (p *Packet) Marshal() []byte {
	return p.AppendMarshal(make([]byte, 0, p.WireSize()))
}

// UnmarshalInto parses a wire packet into p, reusing p's payload capacity
// — the allocation-free counterpart of Unmarshal for pooled packets. On
// error p is left reset.
func UnmarshalInto(p *Packet, b []byte) error {
	p.Reset()
	if len(b) < 1+HeaderLen+4 {
		return fmt.Errorf("packet: wire too short (%d bytes)", len(b))
	}
	off := 1
	if b[0]&wireFlagOuter != 0 {
		if len(b) < 1+2*HeaderLen+4 {
			return fmt.Errorf("packet: wire too short for outer header (%d bytes)", len(b))
		}
		p.outerBuf = unmarshalHeader(b[off:])
		p.Outer = &p.outerBuf
		off += HeaderLen
	}
	p.Inner = unmarshalHeader(b[off:])
	off += HeaderLen
	plen := int(binary.BigEndian.Uint32(b[off:]))
	off += 4
	if len(b)-off < plen {
		p.Reset()
		return fmt.Errorf("packet: wire payload truncated: want %d, have %d", plen, len(b)-off)
	}
	p.Payload = append(p.Payload[:0], b[off:off+plen]...)
	p.PayloadLen = plen
	return nil
}

// Unmarshal parses a wire packet. PayloadLen is set to the carried
// payload's length.
func Unmarshal(b []byte) (*Packet, error) {
	p := &Packet{}
	if err := UnmarshalInto(p, b); err != nil {
		return nil, err
	}
	return p, nil
}

// Reset clears the packet for reuse, retaining payload capacity.
func (p *Packet) Reset() {
	payload := p.Payload
	if payload != nil {
		payload = payload[:0]
	}
	*p = Packet{Payload: payload}
}

// String renders a compact description for logs.
func (p *Packet) String() string {
	ft := p.FiveTuple()
	if p.Outer != nil {
		return fmt.Sprintf("[%s=>%s|%s len=%d lbl=%d]",
			p.Outer.Src, p.Outer.Dst, ft, p.Size(), p.Label())
	}
	return fmt.Sprintf("[%s len=%d lbl=%d]", ft, p.Size(), p.Label())
}
