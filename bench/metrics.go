package main

import (
	"math"
	"sort"
)

// workloadDef names one workload and records why it exists; BENCHMARK.json
// repeats the list and bench_test.go keeps the two in step.
type workloadDef struct {
	Name string
	Why  string
}

var workloads = []workloadDef{
	{"steady_chain", "long-lived flows: flow-table hit, pinned select, NF, encap/decap do the work; classification does almost none"},
	{"label_chain", "steady_chain with label switching: isolates the III-E label path from the tunnel path"},
	{"flow_churn", "two-packet flows over 300 policies with expiry: classifier, insert and sweep dominate; the hit path barely runs"},
	{"live_loopback", "UDP devices on loopback: marshal, sockets, dispatcher and worker pool dominate; enforce is a small share"},
	{"control_loop", "policy edits and rebalances through Recompute and 2PC delta push to 32 agents: diff/wire-bound edits, LP-bound rebalances"},
}

// metricDef describes one reported metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: tolerated worsening as a share of the parent's median
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them: an operation is a packet on the dataplane workloads
// and a control step (edit or rebalance) on control_loop.
var endToEnd = []metricDef{
	{"enforced_per_s", "1/s", "higher", 0.25},
	{"op_latency_p50_us", "us", "lower", 0.25},
	{"live_heap_mb", "MB", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer lists the traced run's metrics. A metric a workload does not
// exercise reads 0 there.
var perLayer = []metricDef{
	{Name: "bench.failed_share", Unit: "share", Better: "lower"},
	{Name: "bench.trace_overhead_share", Unit: "share", Better: "lower"},
	{Name: "bench.self_time_coverage", Unit: "share", Better: "higher"},
	{Name: "bench.span_cost_ns", Unit: "ns", Better: "lower"},
	{Name: "bench.gen_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "bench.forward_ns", Unit: "ns", Better: "lower"},
	{Name: "bench.allocs_per_pkt", Unit: "count", Better: "lower"},
	{Name: "bench.op_latency_p95_us", Unit: "us", Better: "lower"},
	{Name: "bench.op_latency_p99_us", Unit: "us", Better: "lower"},
	{Name: "setup.bed_s", Unit: "s", Better: "lower"},
	{Name: "setup.initial_solve_s", Unit: "s", Better: "lower"},
	{Name: "setup.initial_rollout_s", Unit: "s", Better: "lower"},

	{Name: "enforce.proxy_self_ns", Unit: "ns", Better: "lower"},
	{Name: "enforce.mb_self_ns", Unit: "ns", Better: "lower"},
	{Name: "enforce.select_ns", Unit: "ns", Better: "lower"},
	{Name: "enforce.sweep_us", Unit: "us", Better: "lower"},
	{Name: "enforce.hops_per_pkt", Unit: "count", Better: "lower"},
	{Name: "enforce.classified_per_pkt", Unit: "count", Better: "lower"},
	{Name: "enforce.tunnel_tx_share", Unit: "share", Better: "lower"},
	{Name: "enforce.label_tx_share", Unit: "share", Better: "higher"},
	{Name: "enforce.errors", Unit: "count", Better: "lower"},
	{Name: "enforce.apply_delta_us", Unit: "us", Better: "lower"},

	{Name: "flowtable.hit_ns", Unit: "ns", Better: "lower"},
	{Name: "flowtable.parallel_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "flowtable.label_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "flowtable.miss_insert_ns", Unit: "ns", Better: "lower"},
	{Name: "flowtable.sweep_ns_per_entry", Unit: "ns", Better: "lower"},
	{Name: "flowtable.hit_share", Unit: "share", Better: "higher"},
	{Name: "flowtable.entries_peak", Unit: "count", Better: "lower"},
	{Name: "flowtable.expired_per_pkt", Unit: "count", Better: "lower"},

	{Name: "policy.linear_match_ns", Unit: "ns", Better: "lower"},
	{Name: "policy.trie_match_ns", Unit: "ns", Better: "lower"},
	{Name: "policy.rules_per_node", Unit: "count", Better: "lower"},

	{Name: "packet.marshal_64_ns", Unit: "ns", Better: "lower"},
	{Name: "packet.marshal_1400_ns", Unit: "ns", Better: "lower"},
	{Name: "packet.unmarshal_64_ns", Unit: "ns", Better: "lower"},
	{Name: "packet.unmarshal_1400_ns", Unit: "ns", Better: "lower"},
	{Name: "packet.encap_decap_ns", Unit: "ns", Better: "lower"},
	{Name: "packet.label_ns", Unit: "ns", Better: "lower"},
	{Name: "packet.pool_get_put_ns", Unit: "ns", Better: "lower"},
	{Name: "packet.pool_miss_share", Unit: "share", Better: "lower"},

	{Name: "nf.fw_ns", Unit: "ns", Better: "lower"},
	{Name: "nf.ids_ns", Unit: "ns", Better: "lower"},
	{Name: "nf.ids_1400_ns", Unit: "ns", Better: "lower"},
	{Name: "nf.wp_ns", Unit: "ns", Better: "lower"},
	{Name: "nf.wp_1400_ns", Unit: "ns", Better: "lower"},
	{Name: "nf.tm_ns", Unit: "ns", Better: "lower"},
	{Name: "nf.span_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "nf.drop_share", Unit: "share", Better: "lower"},
	{Name: "nf.serve_share", Unit: "share", Better: "higher"},

	{Name: "netaddr.hash_ns", Unit: "ns", Better: "lower"},

	{Name: "live.inject_ns", Unit: "ns", Better: "lower"},
	{Name: "live.datagrams_per_pkt", Unit: "count", Better: "lower"},
	{Name: "live.queue_depth_p99", Unit: "count", Better: "lower"},
	{Name: "live.control_frames", Unit: "count", Better: "lower"},
	{Name: "live.counters_call_us", Unit: "us", Better: "lower"},
	{Name: "live.do_call_us", Unit: "us", Better: "lower"},
	{Name: "live.dev_errors", Unit: "count", Better: "lower"},
	{Name: "live.blackholed", Unit: "count", Better: "lower"},

	{Name: "controller.edit_to_applied_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "controller.edit_to_applied_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "controller.rebalance_to_applied_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "controller.rebalance_to_applied_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "controller.rebalance_lambda_mean", Unit: "pkts", Better: "lower"},
	{Name: "controller.recompute_edit_ms", Unit: "ms", Better: "lower"},
	{Name: "controller.recompute_rebalance_ms", Unit: "ms", Better: "lower"},
	{Name: "controller.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "controller.diff_ms", Unit: "ms", Better: "lower"},
	{Name: "controller.journal_append_us", Unit: "us", Better: "lower"},
	{Name: "controller.solve_ms", Unit: "ms", Better: "lower"},
	{Name: "controller.dirty_share", Unit: "share", Better: "lower"},
	{Name: "controller.scoped_share", Unit: "share", Better: "higher"},
	{Name: "controller.delta_entries_per_edit", Unit: "count", Better: "lower"},
	{Name: "controller.clamped_weights", Unit: "count", Better: "lower"},
	{Name: "lp.vars", Unit: "count", Better: "lower"},
	{Name: "lp.iterations", Unit: "count", Better: "lower"},

	{Name: "mgmt.push_edit_ms", Unit: "ms", Better: "lower"},
	{Name: "mgmt.push_rebalance_ms", Unit: "ms", Better: "lower"},
	{Name: "mgmt.encode_us", Unit: "us", Better: "lower"},
	{Name: "mgmt.pushed_bytes_per_edit", Unit: "B", Better: "lower"},
	{Name: "mgmt.bytes_per_rebalance", Unit: "B", Better: "lower"},
	{Name: "mgmt.nodes_touched_per_edit", Unit: "count", Better: "lower"},
	{Name: "mgmt.delta_fallbacks", Unit: "count", Better: "lower"},
	{Name: "mgmt.retries", Unit: "count", Better: "lower"},
}

// quantile is the exact nearest-rank percentile of sorted samples: the
// smallest value with at least q of the samples at or below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// latencies summarizes a sample set so the samples themselves can be
// released before live_heap_mb is read.
type latencies struct {
	n             int
	p50, p95, p99 float64
}

// summarize sorts xs in place.
func summarize(xs []float64) latencies {
	sort.Float64s(xs)
	return latencies{len(xs), quantile(xs, 0.50), quantile(xs, 0.95), quantile(xs, 0.99)}
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
