package live

import (
	"strconv"
	"sync"

	"sdme/internal/metrics"
	"sdme/internal/netaddr"
	"sdme/internal/packet"
)

// workItem is one unit of dataplane work handed from a device's
// single-producer receive loop to its worker pool.
//
// Exactly one of three shapes: a data packet (pkt != nil, pooled — the
// worker Puts it back), a control frame (isCtl, flow set), or a quiesce
// barrier (barrier != nil; the worker just Done()s it, and because worker
// queues are FIFO, every item dispatched before the barrier has been fully
// processed once all workers have passed it).
type workItem struct {
	pkt     *packet.Packet
	flow    netaddr.FiveTuple
	isCtl   bool
	barrier *sync.WaitGroup
	recvUS  int64
}

// workerQueueLen is each worker's channel capacity. Dispatch blocks when a
// queue is full (backpressure into the socket buffer) — the pool never
// drops a received frame.
const workerQueueLen = 1024

// flowWorkerHash maps a packet's flow identity to its worker. It hashes
// Src, SrcPort, DstPort and Proto but deliberately NOT Dst: a
// label-switched packet has Inner.Dst rewritten hop by hop while the other
// four fields survive every transformation (tunneled, labeled, plain), so
// this keeps every datagram and control frame of one flow — in any
// on-the-wire shape — on the same worker, which is what serializes
// per-flow soft-state access. FNV-1a with a Mix64 avalanche: the result is
// reduced modulo a small worker count, and raw FNV low bits skew badly on
// structured tuples (flows differing only in a few port bits would pile
// onto two workers).
func flowWorkerHash(src netaddr.Addr, srcPort, dstPort uint16, proto uint8) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for shift := 24; shift >= 0; shift -= 8 {
		h = (h ^ uint64(byte(uint32(src)>>shift))) * prime64
	}
	h = (h ^ uint64(byte(srcPort>>8))) * prime64
	h = (h ^ uint64(byte(srcPort))) * prime64
	h = (h ^ uint64(byte(dstPort>>8))) * prime64
	h = (h ^ uint64(byte(dstPort))) * prime64
	h = (h ^ uint64(proto)) * prime64
	return netaddr.Mix64(h)
}

// startWorkers launches the device's worker pool. Called once from
// AddDeviceWorkers before the dispatcher starts.
func (d *Device) startWorkers(n int) {
	d.workers = make([]chan workItem, n)
	for i := range d.workers {
		d.workers[i] = make(chan workItem, workerQueueLen)
		d.wg.Add(1)
		go d.workerLoop(d.workers[i])
	}
}

// workerFor returns the worker queue owning the given flow identity.
func (d *Device) workerFor(src netaddr.Addr, srcPort, dstPort uint16, proto uint8) chan workItem {
	if len(d.workers) == 1 {
		return d.workers[0]
	}
	return d.workers[flowWorkerHash(src, srcPort, dstPort, proto)%uint64(len(d.workers))]
}

// dispatch parses one received frame and enqueues it on its flow's worker;
// a frame it cannot parse, the empty datagram included, counts in Errors.
// Runs only on the dispatcher goroutine.
func (d *Device) dispatch(frame []byte) {
	if len(frame) == 0 {
		d.Errors.Add(1)
		return
	}
	now := d.rt.now()
	switch frame[0] {
	case frameData:
		pkt := packet.Get()
		if err := packet.UnmarshalInto(pkt, frame[1:]); err != nil {
			packet.Put(pkt)
			d.Errors.Add(1)
			return
		}
		h := pkt.Inner
		ch := d.workerFor(h.Src, h.SrcPort, h.DstPort, h.Proto)
		d.observeQueueDepth(len(ch))
		ch <- workItem{pkt: pkt, recvUS: now}
	case frameControl:
		flow, err := unmarshalControl(frame[1:])
		if err != nil {
			d.Errors.Add(1)
			return
		}
		ch := d.workerFor(flow.Src, flow.SrcPort, flow.DstPort, flow.Proto)
		d.observeQueueDepth(len(ch))
		ch <- workItem{isCtl: true, flow: flow, recvUS: now}
	default:
		d.Errors.Add(1)
	}
}

// workerLoop processes one queue until the dispatcher closes it, draining
// every queued item before exiting — Close never drops accepted work.
func (d *Device) workerLoop(ch chan workItem) {
	defer d.wg.Done()
	fwd := &udpForwarder{rt: d.rt, conn: d.conn}
	var (
		cachedLM *liveMetrics
		latency  *metrics.Histogram
	)
	for item := range ch {
		if item.barrier != nil {
			item.barrier.Done()
			continue
		}
		now := d.rt.now()
		if item.isCtl {
			d.Node.HandleControl(item.flow, now)
		} else {
			var err error
			if d.Node.IsProxy {
				err = d.Node.HandleOutbound(item.pkt, now, fwd)
			} else {
				err = d.Node.HandleArrival(item.pkt, now, fwd)
			}
			if err != nil {
				d.Errors.Add(1)
			}
			packet.Put(item.pkt)
		}
		if m := d.rt.lm.Load(); m != nil {
			if m != cachedLM {
				cachedLM = m
				latency = m.reg.Histogram(MetricEnforceLatencyUS, metrics.LatencyBucketsUS,
					"node", strconv.Itoa(int(d.Node.ID)))
			}
			latency.Observe(d.rt.now() - item.recvUS)
		} else if cachedLM != nil {
			cachedLM, latency = nil, nil
		}
	}
}

// quiesce waits until every item dispatched so far has been fully
// processed: one barrier per worker queue, FIFO order does the rest. Runs
// only on the dispatcher goroutine, between reads, so no new data races
// ahead of the barrier.
func (d *Device) quiesce() {
	var wg sync.WaitGroup
	wg.Add(len(d.workers))
	for _, ch := range d.workers {
		ch <- workItem{barrier: &wg}
	}
	wg.Wait()
}

// observeQueueDepth records the chosen worker queue's depth at dispatch
// time. Dispatcher-goroutine only; the histogram handle is re-minted when
// the runtime's metrics attachment changes.
func (d *Device) observeQueueDepth(depth int) {
	m := d.rt.lm.Load()
	if m == nil {
		if d.dispLM != nil {
			d.dispLM, d.queueDepth = nil, nil
		}
		return
	}
	if m != d.dispLM {
		d.dispLM = m
		d.queueDepth = m.reg.Histogram(MetricWorkerQueueDepth, QueueDepthBuckets,
			"node", strconv.Itoa(int(d.Node.ID)))
	}
	d.queueDepth.Observe(int64(depth))
}

// syncGauges refreshes the sampled gauges — per-shard table occupancy and
// the process-global pool hit/miss counters. Dispatcher-goroutine only,
// called periodically between reads.
func (d *Device) syncGauges() {
	m := d.rt.lm.Load()
	if m == nil {
		return
	}
	hits, misses := packet.PoolStats()
	m.poolHits.Set(float64(hits))
	m.poolMisses.Set(float64(misses))
	d.Node.SyncShardGauges()
}
