package sim

import (
	"sdme/internal/enforce"
	"sdme/internal/metrics"
)

// Substrate-level metric family names. The sdme_node_* / sdme_func_*
// families come from the shared enforce dataplane (enforce/observe.go)
// and are emitted identically by sim and live; the families below are
// network-path measurements that currently only the simulator can take.
const (
	MetricInjected   = "sdme_packets_injected_total"
	MetricDelivered  = "sdme_packets_delivered_total"
	MetricE2ELatency = "sdme_e2e_latency_us"
	MetricPathHops   = "sdme_path_hops"
	MetricHopLatency = "sdme_hop_latency_us"
	MetricQueueDelay = "sdme_queue_delay_us"
)

// simMetrics caches the network's registry handles.
type simMetrics struct {
	reg       *metrics.Registry
	delivered *metrics.Counter
	e2e       *metrics.Histogram
	hops      *metrics.Histogram
	hopLat    *metrics.Histogram
	queue     *metrics.Histogram
}

// NewRegistry creates a metrics registry driven by this network's
// virtual clock, so snapshots are stamped with simulation time and two
// same-seed runs produce byte-identical output.
func (nw *Network) NewRegistry() *metrics.Registry {
	return metrics.NewRegistry(func() int64 { return nw.Engine.Now() })
}

// AttachMetrics wires a registry into the network and every enforcement
// node: the dataplane families (per-node, per-func) plus the simulator's
// path measurements — packets injected (read from Stats at exposition),
// end-to-end latency, per-link hop latency, path hop counts and
// middlebox queueing delay. nil detaches.
func (nw *Network) AttachMetrics(reg *metrics.Registry) {
	for _, n := range nw.nodes {
		n.SetMetrics(reg)
	}
	if nw.m != nil {
		nw.m.reg.Unread(nw)
	}
	if reg == nil {
		nw.m = nil
		return
	}
	reg.ReadCounter(MetricInjected, nw, func(emit metrics.Emit) { emit(float64(nw.stats.PacketsInjected)) })
	nw.m = &simMetrics{
		reg:       reg,
		delivered: reg.Counter(MetricDelivered),
		e2e:       reg.Histogram(MetricE2ELatency, metrics.LatencyBucketsUS),
		hops:      reg.Histogram(MetricPathHops, metrics.HopBuckets),
		hopLat:    reg.Histogram(MetricHopLatency, metrics.LatencyBucketsUS),
		queue:     reg.Histogram(MetricQueueDelay, metrics.LatencyBucketsUS),
	}
	reg.SetHelp(MetricE2ELatency, "end-to-end delivery latency of injected data packets")
	reg.SetHelp(MetricPathHops, "router-to-router transmissions per delivered packet")
}

// SetTracer attaches a runtime tracer to every enforcement node (and to
// the network itself for queue events). nil detaches.
func (nw *Network) SetTracer(t *enforce.RuntimeTracer) {
	nw.tracer = t
	for _, n := range nw.nodes {
		n.SetTracer(t)
	}
}
