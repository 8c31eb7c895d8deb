package live

// Edge cases of the batched socket path on real sockets: what a staged
// batch does with a frame the fabric or the kernel will not carry, what a
// reader does with a datagram longer than its slot, and that a command
// never finds a frame staged.

import (
	"maps"
	"net/netip"
	"testing"
	"time"

	"sdme/internal/enforce"
	"sdme/internal/netaddr"
	"sdme/internal/packet"
)

// rawSend returns a function that writes datagrams, as they are, to the
// socket serving the model address to, all from one socket: they arrive
// in the order they were sent.
func rawSend(t *testing.T, rt *Runtime, to netaddr.Addr) func([]byte) {
	t.Helper()
	conn, _, err := listen()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	ep, ok := rt.lookup(to)
	if !ok {
		t.Fatalf("no endpoint for %v", to)
	}
	return func(b []byte) {
		t.Helper()
		if _, err := conn.WriteToUDPAddrPort(b, ep); err != nil {
			t.Fatal(err)
		}
	}
}

func dataFrame(p *packet.Packet) []byte { return p.AppendMarshal([]byte{frameData}) }

// cutFrame is a 4 KiB datagram whose first maxFrame bytes are a whole
// data frame carrying p: only a reader that sees the kernel cut it can
// tell it from that frame.
func cutFrame(p *packet.Packet) []byte {
	return append(dataFrame(p), make([]byte, 4<<10)...)
}

// TestSinkCountsErrors: a datagram a sink cannot take counts in Errors
// and not in Received; a control frame is neither.
func TestSinkCountsErrors(t *testing.T) {
	rt, sink, addr := sinkBed(t)
	send := rawSend(t, rt, addr)
	send([]byte{0x7f})
	if !WaitUntil(5*time.Second, func() bool { return sink.Errors.Load() == 1 }) {
		t.Fatalf("Errors = %d after a mistyped datagram, want 1", sink.Errors.Load())
	}
	if got := sink.Received(); got != 0 {
		t.Fatalf("Received = %d after a mistyped datagram, want 0", got)
	}
	send(appendControl(nil, workerFlow(0)))
	send(nil)
	send([]byte{frameData, 1, 2})
	send(cutFrame(payloadPacket(workerFlow(0), 64)))
	send(dataFrame(payloadPacket(workerFlow(1), 64)))
	awaitReceived(t, sink, 1)
	if got := sink.Errors.Load(); got != 4 {
		t.Fatalf("Errors = %d, want 4: mistyped, empty, unparseable, cut", got)
	}
	if got := sink.FlowCount(workerFlow(0)); got != 0 {
		t.Fatalf("the cut frame's flow counted %d packets, want 0", got)
	}
}

// TestBatchOversizeFrameMidBatch: a frame longer than the fabric carries,
// staged between others, costs one Blackholed; the rest of the batch
// arrives.
func TestBatchOversizeFrameMidBatch(t *testing.T) {
	rt, sink, _ := sinkBed(t)
	conn, raw, err := listen()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fwd := newForwarder(rt, conn, raw)
	for i := range uint16(6) {
		if i == 3 {
			fwd.Send(nil, payloadPacket(workerFlow(100), maxFrame))
		}
		fwd.Send(nil, payloadPacket(workerFlow(i), 64))
	}
	fwd.flush()
	awaitReceived(t, sink, 6)
	if got := rt.Blackholed.Load(); got != 1 {
		t.Fatalf("Blackholed = %d, want 1", got)
	}
	for i := range uint16(6) {
		if got := sink.FlowCount(workerFlow(i)); got != 1 {
			t.Errorf("flow %d: sink counted %d, want 1", i, got)
		}
	}
}

// TestBatchRefusedFrameMidBatch: a frame the kernel refuses (a
// destination port of 0) in the middle of a batch costs one Blackholed,
// and the send resumes behind it.
func TestBatchRefusedFrameMidBatch(t *testing.T) {
	rt, sink, _ := sinkBed(t)
	refused := netaddr.Addr(0x0a_63_00_01)
	eps := maps.Clone(*rt.endpoints.Load())
	eps[refused] = netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 0, 1}), 0)
	rt.endpoints.Store(&eps)
	conn, raw, err := listen()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fwd := newForwarder(rt, conn, raw)
	bad := payloadPacket(workerFlow(100), 64)
	bad.Inner.Dst = refused
	for i := range uint16(4) {
		if i == 2 {
			fwd.Send(nil, bad)
		}
		fwd.Send(nil, payloadPacket(workerFlow(i), 64))
	}
	fwd.flush()
	awaitReceived(t, sink, 4)
	if got := rt.Blackholed.Load(); got != 1 {
		t.Fatalf("Blackholed = %d, want 1", got)
	}
}

// TestBatchCutFrameAtDevice: a datagram longer than a read slot counts
// once in the device's Errors and is not dispatched; the datagram behind
// it is.
func TestBatchCutFrameAtDevice(t *testing.T) {
	b := newWorkerBed(t, 1)
	flow := workerFlow(0)
	if _, err := b.rt.AddSink(flow.Dst); err != nil {
		t.Fatal(err)
	}
	send := rawSend(t, b.rt, b.proxyAddr)
	send(cutFrame(seqPacket(flow, 1)))
	send(dataFrame(seqPacket(flow, 2)))
	if !WaitUntil(5*time.Second, func() bool { return b.rec.Processed() >= 1 }) {
		t.Fatal("the datagram behind the cut one never reached the middlebox")
	}
	if got := b.proxy.Counters().PacketsIn; got != 1 {
		t.Fatalf("proxy PacketsIn = %d, want 1", got)
	}
	if got := b.proxy.Errors.Load(); got != 1 {
		t.Fatalf("proxy Errors = %d, want 1", got)
	}
	if got := b.rec.flowSeqs(flow); len(got) != 1 || got[0] != 2 {
		t.Fatalf("middlebox saw sequence numbers %v, want [2]", got)
	}
}

// TestBatchDoFlushesStaged: a Do straight after a burst finds no frame
// staged in any forwarder — a worker flushes before it passes the
// barrier, even with the barrier queued behind the burst, where the
// empty-queue flush never runs.
func TestBatchDoFlushesStaged(t *testing.T) {
	const burst = 5
	b := newWorkerBed(t, 1)
	flow := workerFlow(0)
	sink, err := b.rt.AddSink(flow.Dst)
	if err != nil {
		t.Fatal(err)
	}
	// A slow function keeps the burst queued until the barrier is behind it.
	b.rec.lagNS.Store(int64(5 * time.Millisecond))
	for seq := range uint32(burst) {
		src := seqPacket(flow, seq)
		if err := src.Encapsulate(b.proxyAddr, b.mb.Node.Addr); err != nil {
			t.Fatal(err)
		}
		pkt := packet.Get()
		if err := packet.UnmarshalInto(pkt, src.Marshal()); err != nil {
			t.Fatal(err)
		}
		b.mb.workers[0] <- workItem{pkt: pkt}
	}
	b.mb.Do(func(*enforce.Node) {
		if got := b.rec.Processed(); got != burst {
			t.Errorf("command ran after %d of %d packets", got, burst)
		}
		for i, f := range b.mb.fwds {
			if f.staged != 0 {
				t.Errorf("worker %d: %d frames staged when the command ran", i, f.staged)
			}
		}
	})
	awaitReceived(t, sink, burst)
}
