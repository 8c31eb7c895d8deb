package live

// The worker sender's UDP GSO on real sockets: how staged frames group
// into messages, what a refused message costs, and the fallback when the
// kernel will not segment.

import (
	"bytes"
	"net"
	"net/netip"
	"syscall"
	"testing"
	"time"
)

// gsoPeer is a plain UDP socket that a test reads datagrams from as they
// arrived, with no framing or parsing between.
type gsoPeer struct {
	t    *testing.T
	conn *net.UDPConn
	ep   netip.AddrPort
}

func newGSOPeer(t *testing.T) *gsoPeer {
	t.Helper()
	conn, _, err := listen()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	ap := conn.LocalAddr().(*net.UDPAddr).AddrPort()
	return &gsoPeer{t: t, conn: conn, ep: netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())}
}

// expect reads len(want) datagrams and fails unless they are want, byte
// for byte and in order.
func (p *gsoPeer) expect(want ...[]byte) {
	p.t.Helper()
	buf := make([]byte, 64<<10)
	for i, w := range want {
		_ = p.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, err := p.conn.Read(buf)
		if err != nil {
			p.t.Fatalf("datagram %d of %d: %v", i+1, len(want), err)
		}
		if !bytes.Equal(buf[:n], w) {
			p.t.Fatalf("datagram %d: got %d bytes %x..., want %d bytes %x...", i+1, n, buf[:min(n, 4)], len(w), w[:min(len(w), 4)])
		}
	}
}

// gsoFrame is an n-byte frame whose bytes name it: tag, then its length.
func gsoFrame(tag byte, n int) []byte {
	b := bytes.Repeat([]byte{tag}, n)
	b[1] = byte(n)
	return b
}

// gsoForwarder is a forwarder on a socket of its own; stageRaw puts a
// frame in its next slot as it is, past Send's checks.
func gsoForwarder(t *testing.T) (*Runtime, *udpForwarder, syscall.RawConn) {
	t.Helper()
	rt := NewRuntime()
	t.Cleanup(rt.Close)
	conn, raw, err := listen()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return rt, newForwarder(rt, conn, raw), raw
}

func (f *udpForwarder) stageRaw(b []byte, ep netip.AddrPort) {
	f.frames[f.staged] = append(f.frames[f.staged][:0], b...)
	f.eps[f.staged] = ep
	f.staged++
}

// TestBatchGSOGroupsPerEndpoint: interleaved frames for two endpoints
// leave as three messages — a's 64, 64 and 32 bytes (the short frame ends
// the message), b's three, then a's last 64 — and every frame arrives
// whole, in staged order per endpoint.
func TestBatchGSOGroupsPerEndpoint(t *testing.T) {
	a, b := newGSOPeer(t), newGSOPeer(t)
	conn, raw, err := listen()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var s sender
	s.init(conn, raw)
	frames := [][]byte{gsoFrame(1, 64), gsoFrame(2, 48), gsoFrame(3, 64), gsoFrame(4, 48),
		gsoFrame(5, 32), gsoFrame(6, 48), gsoFrame(7, 64)}
	eps := []netip.AddrPort{a.ep, b.ep, a.ep, b.ep, a.ep, b.ep, a.ep}
	refused, messages, fellBack := s.write(frames, eps)
	if refused != 0 || fellBack {
		t.Fatalf("refused %d, fell back %v; want 0, false", refused, fellBack)
	}
	if messages != 3 {
		t.Errorf("%d messages, want 3", messages)
	}
	a.expect(frames[0], frames[2], frames[4], frames[6])
	b.expect(frames[1], frames[3], frames[5])
}

// TestBatchRefusedGroupMidBatch: a segmented message the kernel refuses
// (nine 8,000-byte frames, past UDP's 64 KiB) counts each of its frames
// once in Blackholed, turns nothing off, and the message behind it
// arrives.
func TestBatchRefusedGroupMidBatch(t *testing.T) {
	rt, fwd, _ := gsoForwarder(t)
	a, b := newGSOPeer(t), newGSOPeer(t)
	for range 9 {
		fwd.stageRaw(gsoFrame(1, 8000), a.ep)
	}
	after := []byte{frameControl, 2, 3}
	fwd.stageRaw(after, b.ep)
	fwd.flush()
	b.expect(after)
	if got := rt.Blackholed.Load(); got != 9 {
		t.Fatalf("Blackholed = %d, want 9", got)
	}
	if got := rt.GSOFallbacks.Load(); got != 0 || fwd.out.noGSO {
		t.Fatalf("GSOFallbacks = %d (GSO off: %v) after a refusal that was not GSO's", got, fwd.out.noGSO)
	}
}

// TestBatchGSOFallback: on a socket that may not segment (SO_NO_CHECK: a
// GSO send needs the checksum) the refused message's frames and those
// behind it go again one datagram each, in order, and the fallback counts
// once; the next flush sends a datagram per message from the start.
func TestBatchGSOFallback(t *testing.T) {
	rt, fwd, raw := gsoForwarder(t)
	reg := rt.NewRegistry()
	rt.AttachMetrics(reg)
	messages := reg.Counter(MetricSendMessages)
	var serr error
	if err := raw.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_NO_CHECK, 1)
	}); err != nil || serr != nil {
		t.Fatalf("SO_NO_CHECK: %v %v", err, serr)
	}
	a, b := newGSOPeer(t), newGSOPeer(t)
	lone := gsoFrame(9, 40)
	group := [][]byte{gsoFrame(1, 64), gsoFrame(2, 64), gsoFrame(3, 64), gsoFrame(4, 20)}
	fwd.stageRaw(lone, b.ep) // a message of one frame: sent before the group
	for _, f := range group {
		fwd.stageRaw(f, a.ep)
	}
	fwd.flush()
	b.expect(lone)
	a.expect(group...)
	if got := rt.GSOFallbacks.Load(); got != 1 {
		t.Fatalf("GSOFallbacks = %d, want 1", got)
	}
	if got := messages.Value(); got != 5 {
		t.Fatalf("%d messages for 5 frames after the fallback, want 5", got)
	}

	for _, f := range group {
		fwd.stageRaw(f, a.ep)
	}
	fwd.flush()
	a.expect(group...)
	if got, msgs := rt.GSOFallbacks.Load(), messages.Value(); got != 1 || msgs != 9 {
		t.Fatalf("GSOFallbacks = %d and %d messages after a second flush, want 1 and 9", got, msgs)
	}
	if got := rt.Blackholed.Load(); got != 0 {
		t.Fatalf("Blackholed = %d, want 0", got)
	}
}
