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

import (
	"sync"
	"sync/atomic"
)

// pktPool is a sync.Pool: a private slot and a shared list per P, so a
// worker takes back the packet it put on its own core and touches no
// lock, plus a victim cache that keeps a packet through one GC. Packets
// idle across two GC cycles return to the heap. Beside it, exact counts:
// a hit reused a pooled object, a miss allocated a fresh one, and puts
// let a caller check that every Get was matched by one Put. The live
// runtime reads hits and misses into its metrics registry (a sustained
// miss rate means the path is not allocation-free).
var pktPool struct {
	free               sync.Pool
	hits, misses, puts atomic.Int64
}

// WireBufferSize bounds a frame on the wire: one UDP datagram on the
// loopback fabric never exceeds 64 KiB.
const WireBufferSize = 64 * 1024

// Get returns a reset Packet from the pool, allocating if the pool is
// empty.
func Get() *Packet {
	if p, _ := pktPool.free.Get().(*Packet); p != nil {
		pktPool.hits.Add(1)
		return p
	}
	pktPool.misses.Add(1)
	return &Packet{}
}

// Put resets p and returns it to the pool. p must not be used after Put.
// Putting nil is a no-op.
func Put(p *Packet) {
	if p == nil {
		return
	}
	p.Reset()
	pktPool.puts.Add(1)
	pktPool.free.Put(p)
}

// PoolStats reports cumulative pool activity: hits (Get served from the
// pool) and misses (Get allocated).
func PoolStats() (hits, misses int64) {
	return pktPool.hits.Load(), pktPool.misses.Load()
}

// PoolPuts reports how many packets Put has taken back; hits + misses −
// puts is the number of packets out of the pool right now.
func PoolPuts() int64 { return pktPool.puts.Load() }
