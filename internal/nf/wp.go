package nf

import (
	"encoding/binary"
	"math/bits"
	"sync"

	"sdme/internal/netaddr"
	"sdme/internal/packet"
	"sdme/internal/policy"
)

// DefaultCacheCapacity is the web proxy's default object capacity.
const DefaultCacheCapacity = 4096

// objectKey identifies a cacheable web object: the server plus a content
// identifier. The content identifier comes from the request payload when
// present (a hash of the "URL" bytes) and falls back to the server tuple
// alone, which makes repeated requests to the same object cache-hit.
type objectKey struct {
	Server  netaddr.Addr
	Port    uint16
	Content uint64
}

// WebProxy is a caching forward proxy (the paper's WP function). A
// request whose object is cached is served locally — the §III-F example's
// "if the current version of pages requested is already cached, the
// request is honored" — which the enforcement layer sees as VerdictServe
// and terminates the chain. Misses insert the object and pass the packet
// onward to the real server.
type WebProxy struct {
	// mu makes Process safe under concurrent dataplane workers.
	mu       sync.Mutex
	capacity int
	// The cache is an LRU list threaded through objs by index: head is the
	// most recent object, tail the next to evict (-1 while empty), and
	// index maps a key to its place in objs. A full cache evicts into the
	// slot it frees, so a miss allocates nothing and the GC scans neither
	// objs nor index.
	objs       []cachedObject
	head, tail int32
	index      map[objectKey]int32
	processed  int64
	hits       int64
	misses     int64
}

// cachedObject is one cached object and its two neighbours in LRU order,
// toward the head and toward the tail (-1 at either end).
type cachedObject struct {
	key        objectKey
	prev, next int32
}

var _ Function = (*WebProxy)(nil)

// NewWebProxy creates a proxy with the given cache capacity (objects).
func NewWebProxy(capacity int) *WebProxy {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	return &WebProxy{
		capacity: capacity,
		head:     -1,
		tail:     -1,
		index:    make(map[objectKey]int32),
	}
}

// Type implements Function.
func (w *WebProxy) Type() policy.FuncType { return policy.FuncWP }

// contentHash hashes a payload 8 bytes per step: each little-endian word
// is folded into the state by a 64×64→128-bit multiply whose halves are
// XORed, so a difference in any bit of a word spreads over the whole
// state before the next word arrives. The length goes in first, so
// payloads that differ only by trailing zero bytes differ.
func contentHash(b []byte) uint64 {
	const (
		k0 = 0x9e3779b97f4a7c15
		k1 = 0xbf58476d1ce4e5b9
	)
	h := uint64(len(b)) * k0
	for ; len(b) >= 8; b = b[8:] {
		h = fold(h^binary.LittleEndian.Uint64(b), k1)
	}
	if len(b) > 0 {
		var w uint64
		for i, c := range b {
			w |= uint64(c) << (8 * i)
		}
		h = fold(h^w, k1)
	}
	return fold(h, k0)
}

func fold(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

func keyOf(pkt *packet.Packet) objectKey {
	ft := pkt.FiveTuple()
	k := objectKey{Server: ft.Dst, Port: ft.DstPort}
	if len(pkt.Payload) > 0 {
		k.Content = contentHash(pkt.Payload)
	}
	return k
}

// Process implements Function: cache hit serves locally, miss caches and
// passes.
func (w *WebProxy) Process(pkt *packet.Packet, _ int64) Verdict {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.processed++
	k := keyOf(pkt)
	if i, ok := w.index[k]; ok {
		w.unlink(i)
		w.pushFront(i)
		w.hits++
		return VerdictServe
	}
	w.misses++
	i := w.tail
	if len(w.objs) < w.capacity {
		i = int32(len(w.objs))
		w.objs = append(w.objs, cachedObject{})
	} else { // evict the least recently used object; k takes its slot
		w.unlink(i)
		delete(w.index, w.objs[i].key)
	}
	w.objs[i].key = k
	w.index[k] = i
	w.pushFront(i)
	return VerdictPass
}

func (w *WebProxy) unlink(i int32) {
	o := &w.objs[i]
	if o.prev >= 0 {
		w.objs[o.prev].next = o.next
	} else {
		w.head = o.next
	}
	if o.next >= 0 {
		w.objs[o.next].prev = o.prev
	} else {
		w.tail = o.prev
	}
}

func (w *WebProxy) pushFront(i int32) {
	w.objs[i].prev, w.objs[i].next = -1, w.head
	if w.head >= 0 {
		w.objs[w.head].prev = i
	} else {
		w.tail = i
	}
	w.head = i
}

// Processed implements Function.
func (w *WebProxy) Processed() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.processed
}

// Hits returns the cache hit count.
func (w *WebProxy) Hits() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.hits
}

// Misses returns the cache miss count.
func (w *WebProxy) Misses() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.misses
}

// CacheLen returns the number of cached objects.
func (w *WebProxy) CacheLen() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.objs)
}
