package enforce_test

import (
	"testing"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/netaddr"
	"sdme/internal/packet"
)

// quietFabric is fabric without the bookkeeping: it hands a packet to the
// node owning its outermost destination and counts the rest as
// delivered, allocating nothing.
type quietFabric struct {
	nodes     map[netaddr.Addr]*enforce.Node
	delivered int
}

func (f *quietFabric) Send(_ *enforce.Node, pkt *packet.Packet) {
	if n, ok := f.nodes[pkt.OutermostDst()]; ok {
		if err := n.HandleArrival(pkt, 0, f); err != nil {
			panic(err)
		}
		return
	}
	f.delivered++
}

func (f *quietFabric) SendControl(_ *enforce.Node, to netaddr.Addr, flow netaddr.FiveTuple) {
	f.nodes[to].HandleControl(flow, 0)
}

// BenchmarkHandleEstablished times one packet of an established flow
// through a proxy and a FW→IDS chain under the LB strategy, tunneled and
// label-switched: the per-packet work of the enforce layer once every
// entry the flow needs exists. The packet path must allocate nothing.
func BenchmarkHandleEstablished(b *testing.B) {
	for _, mode := range []string{"tunnel", "label"} {
		b.Run(mode, func(b *testing.B) {
			tb := newTestbed(b, controller.Options{Strategy: enforce.LoadBalanced, LabelSwitching: mode == "label"}, webPolicy)
			f := &quietFabric{nodes: make(map[netaddr.Addr]*enforce.Node)}
			for _, n := range tb.nodes {
				f.nodes[n.Addr] = n
			}
			proxy := tb.proxy(b, 1)
			tmpl := packet.New(flowFromSubnet(1, 2, 80), 64)
			pkt := new(packet.Packet)
			send := func() {
				pkt.Reset()
				pkt.Inner, pkt.PayloadLen = tmpl.Inner, tmpl.PayloadLen
				if err := proxy.HandleOutbound(pkt, 0, f); err != nil {
					b.Fatal(err)
				}
			}
			send() // the first packet installs the flow's entries
			if a := testing.AllocsPerRun(100, send); a != 0 {
				b.Fatalf("%v allocations per established packet, want 0", a)
			}
			c := proxy.Counters
			if f.delivered != 102 || mode == "label" && c.LabelTx != 101 || mode == "tunnel" && c.TunnelTx != 102 {
				b.Fatalf("delivered %d, proxy counters %+v", f.delivered, c)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				send()
			}
		})
	}
}
