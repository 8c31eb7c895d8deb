package live

import (
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"sdme/internal/enforce"
	"sdme/internal/netaddr"
	"sdme/internal/packet"
)

// frameParses is the fuzz target's oracle: whether dispatch should accept
// the datagram.
func frameParses(frame []byte) bool {
	if len(frame) == 0 {
		return false
	}
	var err error
	switch frame[0] {
	case frameData:
		_, err = packet.Unmarshal(frame[1:])
	case frameControl:
		_, err = unmarshalControl(frame[1:])
	default:
		return false
	}
	return err == nil
}

// outstanding is the number of packets out of the pool: Gets not yet
// matched by a Put.
func outstanding() int64 {
	hits, misses := packet.PoolStats()
	return hits + misses - packet.PoolPuts()
}

// FuzzDispatchFrame sends arbitrary datagrams through the door every frame
// comes in by — Device.dispatch, and behind it unmarshalControl,
// packet.UnmarshalInto and the node's handlers — on a proxy and on a
// middlebox of one worker each. No datagram panics, one the parser rejects
// counts once in Errors, and every packet the dispatcher took from the pool
// has been Put back exactly once when the worker is done.
func FuzzDispatchFrame(f *testing.F) {
	b := newWorkerBed(f, 1)
	flow := workerFlow(0)
	if _, err := b.rt.AddSink(flow.Dst); err != nil {
		f.Fatal(err)
	}
	// Only the sink stays reachable: a datagram a device could send to
	// itself or to the other one would be handled on that device's own
	// time, and its errors and its pooled packet would show in some later
	// input's figures.
	sink, _ := b.rt.lookup(flow.Dst)
	b.rt.endpoints.Store(&map[netaddr.Addr]netip.AddrPort{flow.Dst: sink})

	dataFrame := func(p *packet.Packet) []byte { return p.AppendMarshal([]byte{frameData}) }
	f.Add(dataFrame(seqPacket(flow, 1)))
	tunnelled := seqPacket(flow, 2)
	if err := tunnelled.Encapsulate(b.proxyAddr, b.mb.Node.Addr); err != nil {
		f.Fatal(err)
	}
	f.Add(dataFrame(tunnelled))
	labelled := seqPacket(flow, 3)
	if err := labelled.EmbedLabel(3); err != nil {
		f.Fatal(err)
	}
	f.Add(dataFrame(labelled))
	f.Add(appendControl(nil, flow))
	f.Add([]byte{})
	f.Add([]byte{frameData})
	f.Add([]byte{frameControl, 1, 2, 3})
	f.Add([]byte{0x7f, 0, 0})

	f.Fuzz(func(t *testing.T, frame []byte) {
		for _, d := range []*Device{b.proxy, b.mb} {
			// A Do runs on the dispatcher, where dispatch belongs, and
			// only after the worker has finished what came before it.
			var before, after, errs int64
			ok := d.Do(func(*enforce.Node) {
				before, errs = outstanding(), d.Errors.Load()
				d.dispatch(frame, d.rt.now())
			}) && d.Do(func(*enforce.Node) {
				after, errs = outstanding(), d.Errors.Load()-errs
			})
			if !ok {
				t.Fatal("device stopped")
			}
			if frameParses(frame) {
				if errs > 1 {
					t.Fatalf("%x: accepted, and counted %d errors for one frame", frame, errs)
				}
			} else if errs != 1 {
				t.Fatalf("%x: rejected, and counted %d errors, want 1", frame, errs)
			}
			// A missing Put leaves one more out, a double Put one fewer.
			if after != before {
				t.Fatalf("%x: %d packets out of the pool after the frame, %d before: a Get and its Put do not match", frame, after, before)
			}
		}
	})
}

// TestHostileDatagrams is FuzzDispatchFrame's named cases on real
// sockets: each hostile datagram is dropped where it enters, nothing it
// carries reaches the middlebox's function or the sink, and exactly one
// counter says so — the receiving device's Errors, or the runtime's
// Blackholed for a frame the fabric refuses to carry.
func TestHostileDatagrams(t *testing.T) {
	b := newWorkerBed(t, 1)
	flow := workerFlow(0)
	sink, err := b.rt.AddSink(flow.Dst)
	if err != nil {
		t.Fatal(err)
	}
	labelled := seqPacket(flow, 1)
	if err := labelled.EmbedLabel(7); err != nil {
		t.Fatal(err)
	}
	oversize := seqPacket(flow, 4)
	oversize.Payload = make([]byte, maxFrame)

	cases := []struct {
		name string
		at   *Device // receives frame over a socket; nil injects pkt
		// frame is the datagram sent to at; pkt the packet injected.
		frame   []byte
		pkt     *packet.Packet
		counter func() *atomic.Int64
	}{
		{name: "empty frame", at: b.proxy, frame: []byte{}},
		{name: "cut frame", at: b.proxy, frame: cutFrame(seqPacket(flow, 2))},
		{name: "oversize Inject", pkt: oversize, counter: func() *atomic.Int64 { return &b.rt.Blackholed }},
		{name: "truncated header", at: b.proxy, frame: dataFrame(seqPacket(flow, 3))[:12]},
		{name: "unknown type", at: b.proxy, frame: []byte{0x7f, 0, 0}},
		// The middlebox switches no labels, so it holds no label state: a
		// labelled packet is misdirected.
		{name: "label with no state", at: b.mb, frame: dataFrame(labelled)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			counter := c.counter
			if counter == nil {
				counter = func() *atomic.Int64 { return &c.at.Errors }
			}
			others := []*atomic.Int64{&b.rt.Blackholed, &b.proxy.Errors, &b.mb.Errors}
			before := make([]int64, len(others))
			for i, o := range others {
				before[i] = o.Load()
			}
			want := counter().Load() + 1
			processed, received := b.rec.Processed(), sink.Received()
			proxyIn := b.proxy.Counters().PacketsIn

			if c.at == nil {
				if err := b.rt.Inject(b.proxyAddr, c.pkt); err == nil {
					t.Fatal("Inject took the frame")
				}
			} else {
				rawSend(t, b.rt, c.at.Node.Addr)(c.frame)
			}
			if !WaitUntil(5*time.Second, func() bool { return counter().Load() == want }) {
				t.Fatalf("counter = %d, want %d", counter().Load(), want)
			}
			// Both devices' workers have finished whatever came in.
			b.proxy.Counters()
			b.mb.Counters()
			for i, o := range others {
				if o != counter() && o.Load() != before[i] {
					t.Errorf("another counter moved: %d → %d", before[i], o.Load())
				}
			}
			if b.rec.Processed() != processed || sink.Received() != received {
				t.Errorf("the datagram went on: function %d → %d, sink %d → %d",
					processed, b.rec.Processed(), received, sink.Received())
			}
			if c.at != b.mb && b.proxy.Counters().PacketsIn != proxyIn {
				t.Errorf("the proxy handled the datagram: PacketsIn %d → %d", proxyIn, b.proxy.Counters().PacketsIn)
			}
		})
	}
}
