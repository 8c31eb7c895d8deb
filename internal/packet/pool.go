// Pooled packet lifecycle for the live hot path. The
// receive→classify→tunnel→send path reuses one pooled Packet per datagram
// and marshals into a buffer its sender owns (AppendMarshal), so in steady
// state the dataplane performs no heap allocation per packet.
//
// Lifecycle rules (DESIGN §12): a pooled Packet is owned by exactly one
// worker from Get to Put; nothing reached through a Forwarder may retain
// the pointer past the call — forwarders marshal synchronously. Code that
// needs a packet to outlive the handler (the simulator's event queue)
// must Clone it or build its own with New.
package packet

import "sync/atomic"

// pktPool counts Get outcomes beside the free list: a hit reused a pooled
// object, a miss allocated a fresh one. The live runtime mirrors these
// into its metrics registry (pool effectiveness is a first-class dataplane
// signal: a sustained miss rate means the path is not allocation-free).
var pktPool struct {
	free   chan *Packet
	hits   atomic.Int64
	misses atomic.Int64
}

// WireBufferSize bounds a frame on the wire: one UDP datagram on the
// loopback fabric never exceeds 64 KiB.
const WireBufferSize = 64 * 1024

func init() {
	// A fixed-capacity free list instead of sync.Pool: the dataplane wants
	// deterministic reuse (sync.Pool drops its content on GC, turning
	// steady state back into an allocation storm after every cycle) and
	// the channel doubles as the bound on retained memory.
	pktPool.free = make(chan *Packet, 4096)
}

// Get returns a reset Packet from the pool, allocating if the pool is
// empty.
func Get() *Packet {
	select {
	case p := <-pktPool.free:
		pktPool.hits.Add(1)
		return p
	default:
		pktPool.misses.Add(1)
		return &Packet{}
	}
}

// Put resets p and returns it to the pool. p must not be used after Put.
// Putting nil is a no-op; if the pool is full the packet is dropped for
// the GC.
func Put(p *Packet) {
	if p == nil {
		return
	}
	p.Reset()
	select {
	case pktPool.free <- p:
	default:
	}
}

// PoolStats reports cumulative pool activity: hits (Get served from the
// pool) and misses (Get allocated).
func PoolStats() (hits, misses int64) {
	return pktPool.hits.Load(), pktPool.misses.Load()
}
