package live

import (
	"net/netip"
	"testing"

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

// poolView is the packet pool as seen with nobody holding a packet.
type poolView struct {
	free      int   // packets on the free list
	allocated int64 // Gets that found it empty, before this look
}

// viewPool counts the free list by emptying it and putting it back. The
// Get that finds it empty is a miss of the view's own; its packet is
// dropped, so the list is left as it was found.
func viewPool() poolView {
	_, misses := packet.PoolStats()
	v := poolView{allocated: misses}
	var held []*packet.Packet
	for {
		p := packet.Get()
		if _, now := packet.PoolStats(); now != misses {
			break
		}
		held = append(held, p)
	}
	for _, p := range held {
		packet.Put(p)
	}
	v.free = len(held)
	return v
}

// FuzzDispatchFrame sends arbitrary datagrams through the door every frame
// comes in by — Device.dispatch, and behind it unmarshalControl,
// packet.UnmarshalInto and the node's handlers — on a proxy and on a
// middlebox of one worker each. No datagram panics, one the parser rejects
// counts once in Errors, and the packet the dispatcher took from the pool
// is back in it when the worker is done.
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
			var before, after poolView
			var errs int64
			ok := d.Do(func(*enforce.Node) {
				before, errs = viewPool(), d.Errors.Load()
				d.dispatch(frame)
			}) && d.Do(func(*enforce.Node) {
				after, errs = viewPool(), d.Errors.Load()-errs
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
			// before's own miss is the 1.
			if grown, made := after.free-before.free, after.allocated-before.allocated-1; int64(grown) != made {
				t.Fatalf("%x: pool grew by %d packets and allocated %d: one was not put back", frame, grown, made)
			}
		}
	})
}
