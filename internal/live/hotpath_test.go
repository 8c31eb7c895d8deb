package live

// Guards on the send and receive path: it allocates nothing per packet
// once warm, one injector socket serves concurrent injectors without
// mixing their frames, and a send that fails is reported.

import (
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sdme/internal/netaddr"
	"sdme/internal/packet"
	"sdme/internal/topo"
)

// sinkBed is a runtime with nothing in it but one sink, serving the
// address every workerFlow is bound for.
func sinkBed(t *testing.T) (*Runtime, *Sink, netaddr.Addr) {
	t.Helper()
	rt := NewRuntime()
	t.Cleanup(rt.Close)
	addr := workerFlow(0).Dst
	sink, err := rt.AddSink(addr)
	if err != nil {
		t.Fatal(err)
	}
	return rt, sink, addr
}

func payloadPacket(ft netaddr.FiveTuple, n int) *packet.Packet {
	p := packet.New(ft, n)
	p.Payload = make([]byte, n)
	return p
}

// awaitReceived waits until the sink has n packets.
func awaitReceived(t *testing.T, sink *Sink, n int) {
	t.Helper()
	if !WaitUntil(5*time.Second, func() bool { return sink.Received() >= n }) {
		t.Fatalf("sink received %d of %d", sink.Received(), n)
	}
}

// TestInjectAllocFree: a 64-byte packet from Inject to the sink's counters
// — marshal, socket write, socket read, decode, count — allocates nothing
// once the injector socket, its scratch and the sink's map entry exist.
// AllocsPerRun counts the whole process, so the sink's loop is in the
// figure; each run waits for its packet so that none of it is left over.
func TestInjectAllocFree(t *testing.T) {
	rt, sink, addr := sinkBed(t)
	pkt := payloadPacket(workerFlow(0), 64)
	sent := 0
	avg := testing.AllocsPerRun(200, func() {
		if err := rt.Inject(addr, pkt); err != nil {
			t.Fatal(err)
		}
		sent++
		awaitReceived(t, sink, sent)
	})
	if avg != 0 {
		t.Fatalf("Inject allocates %.1f allocs/op, want 0", avg)
	}
	if got := rt.Blackholed.Load(); got != 0 {
		t.Fatalf("Blackholed = %d, want 0", got)
	}
}

// TestForwarderAllocFree: a worker's forwarder builds every frame shape
// in the one buffer it keeps.
func TestForwarderAllocFree(t *testing.T) {
	rt, sink, addr := sinkBed(t)
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fwd := &udpForwarder{rt: rt, conn: conn}

	tunnelled := payloadPacket(workerFlow(1), 64)
	if err := tunnelled.Encapsulate(topo.HostAddr(1, 1), addr); err != nil {
		t.Fatal(err)
	}
	labelled := payloadPacket(workerFlow(2), 64)
	if err := labelled.EmbedLabel(7); err != nil {
		t.Fatal(err)
	}
	sent := 0
	for _, tc := range []struct {
		name string
		send func()
	}{
		{"tunnelled", func() { fwd.Send(nil, tunnelled); sent++ }},
		{"labelled", func() { fwd.Send(nil, labelled); sent++ }},
		// The sink reads a control frame and ignores it.
		{"control", func() { fwd.SendControl(nil, addr, workerFlow(3)) }},
	} {
		avg := testing.AllocsPerRun(200, func() {
			tc.send()
			awaitReceived(t, sink, sent)
		})
		if avg != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", tc.name, avg)
		}
	}
	if enc, lab := sink.Anomalies(); enc == 0 || lab == 0 {
		t.Fatalf("sink saw %d encapsulated and %d labelled packets, want both shapes", enc, lab)
	}
	if got := rt.Blackholed.Load(); got != 0 {
		t.Fatalf("Blackholed = %d, want 0", got)
	}
}

// TestSinkAllocsPerFlow: what a sink allocates grows with the flows it has
// seen (its two maps), not with the packets.
func TestSinkAllocsPerFlow(t *testing.T) {
	const flows, perFlow = 8, 500
	rt, sink, addr := sinkBed(t)
	pkts := make([]*packet.Packet, flows)
	for i := range pkts {
		pkts[i] = payloadPacket(workerFlow(uint16(i)), 64)
	}
	if err := rt.Inject(addr, pkts[0]); err != nil { // opens the injector socket
		t.Fatal(err)
	}
	awaitReceived(t, sink, 1)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for n := 1; n <= flows*perFlow; n++ {
		if err := rt.Inject(addr, pkts[n%flows]); err != nil {
			t.Fatal(err)
		}
		awaitReceived(t, sink, n+1-32) // a window the socket buffer holds
	}
	awaitReceived(t, sink, flows*perFlow+1)
	runtime.ReadMemStats(&after)
	if got := after.Mallocs - before.Mallocs; got > flows*perFlow/10 {
		t.Fatalf("%d allocations for %d packets of %d flows, want a few per flow", got, flows*perFlow, flows)
	}
}

// TestInjectConcurrent: eight injectors share the runtime's socket and
// scratch frame; every packet arrives whole, on its own flow.
func TestInjectConcurrent(t *testing.T) {
	const injectors, each = 8, 2000
	rt, sink, addr := sinkBed(t)
	var sent atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < injectors; g++ {
		wg.Add(1)
		go func(ft netaddr.FiveTuple) {
			defer wg.Done()
			pkt := payloadPacket(ft, 64)
			for i := 0; i < each; i++ {
				// UDP has no flow control: keep what is in flight
				// below what the sink's socket buffer holds.
				mine := int(sent.Add(1))
				if !WaitUntil(5*time.Second, func() bool { return sink.Received() >= mine-64 }) {
					t.Error("sink stalled with 64 packets in flight")
					return
				}
				if err := rt.Inject(addr, pkt); err != nil {
					t.Error(err)
					return
				}
			}
		}(workerFlow(uint16(g)))
	}
	wg.Wait()
	awaitReceived(t, sink, injectors*each)
	for g := 0; g < injectors; g++ {
		if got := sink.FlowCount(workerFlow(uint16(g))); got != each {
			t.Errorf("flow %d: sink counted %d, want %d", g, got, each)
		}
	}
	if got := rt.Blackholed.Load(); got != 0 {
		t.Fatalf("Blackholed = %d, want 0", got)
	}
}

// TestInjectAfterClose: a closed runtime refuses to inject, whether or
// not it had opened its injector socket.
func TestInjectAfterClose(t *testing.T) {
	for _, injectFirst := range []bool{true, false} {
		rt, sink, addr := sinkBed(t)
		pkt := payloadPacket(workerFlow(0), 64)
		if injectFirst {
			if err := rt.Inject(addr, pkt); err != nil {
				t.Fatal(err)
			}
			awaitReceived(t, sink, 1)
		}
		rt.Close()
		err := rt.Inject(addr, pkt)
		if err == nil || !strings.Contains(err.Error(), "runtime closed") {
			t.Fatalf("Inject after Close (injected before: %v) = %v, want a runtime-closed error", injectFirst, err)
		}
	}
}

// TestInjectReportsSendFailure: a datagram the socket refuses (here one
// past UDP's size limit) is an error to the caller as well as a count.
func TestInjectReportsSendFailure(t *testing.T) {
	rt, sink, addr := sinkBed(t)
	if err := rt.Inject(addr, payloadPacket(workerFlow(0), 70_000)); err == nil {
		t.Fatal("Inject of a 70 kB datagram returned nil")
	}
	if got := rt.Blackholed.Load(); got != 1 {
		t.Fatalf("Blackholed = %d, want 1", got)
	}
	if err := rt.Inject(addr, payloadPacket(workerFlow(0), 64)); err != nil {
		t.Fatalf("Inject after a refused datagram: %v", err)
	}
	awaitReceived(t, sink, 1)
}
