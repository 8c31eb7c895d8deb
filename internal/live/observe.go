package live

import (
	"sdme/internal/metrics"
	"sdme/internal/packet"
)

// Live-fabric metric family names. The per-node dataplane families come
// from enforce/observe.go — attach them with Node.SetMetrics BEFORE
// AddDevice, so the device goroutine never races the attachment.
const (
	MetricBlackholed  = "sdme_live_blackholed_total"
	MetricLossDropped = "sdme_live_loss_dropped_total"
	MetricSent        = "sdme_live_datagrams_sent_total"
	// MetricSendMessages counts the messages those datagrams left in: an
	// Inject is one, and a worker's UDP GSO message carries several, so
	// sent / messages is the datagrams per kernel send.
	MetricSendMessages = "sdme_live_send_messages_total"
	// MetricGSOFallbacks reads Runtime.GSOFallbacks.
	MetricGSOFallbacks = "sdme_live_gso_fallbacks_total"
	// MetricWorkerQueueDepth is a per-node histogram of the dispatch-time
	// depth of the chosen worker's queue — the live view of hot-path
	// backpressure.
	MetricWorkerQueueDepth = "sdme_live_worker_queue_depth"
	// MetricEnforceLatencyUS is a per-node histogram of receive→handled
	// latency in microseconds (queue wait plus enforcement).
	MetricEnforceLatencyUS = "sdme_live_enforce_latency_us"
	// MetricPoolHits / MetricPoolMisses read packet.PoolStats: gauges
	// (not counters) because the pool is process-global, so they are not
	// this runtime's count alone.
	MetricPoolHits   = "sdme_live_pool_hits"
	MetricPoolMisses = "sdme_live_pool_misses"
)

// QueueDepthBuckets is the bucket layout of MetricWorkerQueueDepth.
var QueueDepthBuckets = []int64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// liveMetrics caches the runtime's registry handles. reg is retained so
// devices can mint their per-node worker series lazily.
type liveMetrics struct {
	reg            *metrics.Registry
	sent, messages *metrics.Counter
}

// NewRegistry creates a registry driven by the runtime's wall clock
// (microseconds since start) — the live counterpart of the simulator's
// virtual-time registry, emitting the same dataplane family names.
func (r *Runtime) NewRegistry() *metrics.Registry {
	return metrics.NewRegistry(r.NowUS)
}

// AttachMetrics wires a registry into the fabric. It counts datagrams
// and messages sent and the worker histograms into it, and it reads
// Blackholed, Dropped, GSOFallbacks and the packet pool's hits and misses
// at every exposition.
// Safe to call while devices run; nil detaches: the read series leave
// the exposition.
func (r *Runtime) AttachMetrics(reg *metrics.Registry) {
	r.mu.Lock() // orders attaches: each one's reads leave the registry it replaces
	defer r.mu.Unlock()
	if old := r.lm.Load(); old != nil {
		old.reg.Unread(r)
	}
	if reg == nil {
		r.lm.Store(nil)
		return
	}
	reg.ReadCounter(MetricBlackholed, r, func(emit metrics.Emit) { emit(float64(r.Blackholed.Load())) })
	reg.ReadCounter(MetricLossDropped, r, func(emit metrics.Emit) { emit(float64(r.Dropped.Load())) })
	reg.ReadCounter(MetricGSOFallbacks, r, func(emit metrics.Emit) { emit(float64(r.GSOFallbacks.Load())) })
	reg.ReadGauge(MetricPoolHits, r, func(emit metrics.Emit) {
		hits, _ := packet.PoolStats()
		emit(float64(hits))
	})
	reg.ReadGauge(MetricPoolMisses, r, func(emit metrics.Emit) {
		_, misses := packet.PoolStats()
		emit(float64(misses))
	})
	r.lm.Store(&liveMetrics{reg: reg, sent: reg.Counter(MetricSent), messages: reg.Counter(MetricSendMessages)})
}
