package mgmt

import (
	"strconv"
	"sync/atomic"

	"sdme/internal/metrics"
)

// Management-channel metric family names. The server families are
// unlabeled (one controller); the agent families carry a node label.
const (
	MetricPushes          = "sdme_mgmt_pushes_total"
	MetricPushAttempts    = "sdme_mgmt_push_attempts_total"
	MetricPushRetries     = "sdme_mgmt_push_retries_total"
	MetricPushFailures    = "sdme_mgmt_push_failures_total"
	MetricRefused         = "sdme_mgmt_push_refused_total"
	MetricAgentConnects   = "sdme_mgmt_agent_connects_total"
	MetricReconnectRepush = "sdme_mgmt_reconnect_repush_total"
	MetricMeasureReports  = "sdme_mgmt_measure_reports_total"
	MetricPrepares        = "sdme_mgmt_prepares_total"
	MetricCommits         = "sdme_mgmt_commits_total"
	MetricRollbacks       = "sdme_mgmt_rollbacks_total"
	// Delta rollout accounting: how many pushes went out as deltas, how
	// many of those degraded to a full push on a base-epoch refusal, and
	// the envelope bytes of every full-config vs delta frame written
	// (each attempt, seq included) — the pair the "delta pushes ≤10% of
	// full-push bytes" acceptance check reads.
	MetricDeltaPushes    = "sdme_mgmt_delta_pushes_total"
	MetricDeltaFallbacks = "sdme_mgmt_delta_fallbacks_total"
	MetricPushBytesFull  = "sdme_mgmt_push_bytes_full_total"
	MetricPushBytesDelta = "sdme_mgmt_push_bytes_delta_total"

	MetricAgentReconnects   = "sdme_agent_reconnects_total"
	MetricAgentApplies      = "sdme_agent_applies_total"
	MetricAgentEpochRejects = "sdme_agent_epoch_rejects_total"
	MetricAgentTermRejects  = "sdme_agent_term_rejects_total"
	MetricAgentRedirects    = "sdme_agent_redirects_total"
	MetricAgentReports      = "sdme_agent_reports_total"
	MetricAgentPrepares     = "sdme_agent_prepares_total"
	MetricAgentCommits      = "sdme_agent_commits_total"
	MetricAgentAborts       = "sdme_agent_aborts_total"
)

// serverMetrics caches the server's registry handles.
type serverMetrics struct {
	pushes, attempts, retries, failures, refused *metrics.Counter
	connects, repush, reports                    *metrics.Counter
	prepares, commits, rollbacks                 *metrics.Counter
	deltaPushes, deltaFallbacks                  *metrics.Counter
	bytesFull, bytesDelta                        *metrics.Counter
}

// SetMetrics attaches a registry to the server. Safe to call while
// connections are live (the handle swaps atomically); nil detaches.
func (s *Server) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		s.sm.Store(nil)
		return
	}
	s.sm.Store(&serverMetrics{
		pushes:    reg.Counter(MetricPushes),
		attempts:  reg.Counter(MetricPushAttempts),
		retries:   reg.Counter(MetricPushRetries),
		failures:  reg.Counter(MetricPushFailures),
		refused:   reg.Counter(MetricRefused),
		connects:  reg.Counter(MetricAgentConnects),
		repush:    reg.Counter(MetricReconnectRepush),
		reports:   reg.Counter(MetricMeasureReports),
		prepares:  reg.Counter(MetricPrepares),
		commits:   reg.Counter(MetricCommits),
		rollbacks: reg.Counter(MetricRollbacks),

		deltaPushes:    reg.Counter(MetricDeltaPushes),
		deltaFallbacks: reg.Counter(MetricDeltaFallbacks),
		bytesFull:      reg.Counter(MetricPushBytesFull),
		bytesDelta:     reg.Counter(MetricPushBytesDelta),
	})
}

// smInc bumps one server counter if a registry is attached; the selector
// keeps call sites one line.
func (s *Server) smInc(sel func(*serverMetrics) *metrics.Counter) {
	if m := s.sm.Load(); m != nil {
		sel(m).Inc()
	}
}

// observePushBytes counts the envelope length of one plan frame written
// (a full config or prepare, or a prepare-delta) under the full or delta
// byte counter; other frames are not pushes.
func (s *Server) observePushBytes(typ string, n int) {
	m := s.sm.Load()
	if m == nil {
		return
	}
	switch typ {
	case TypePrepareDelta:
		m.bytesDelta.Add(int64(n))
	case TypePrepare, TypeConfig:
		m.bytesFull.Add(int64(n))
	}
}

// agentMetrics holds an agent's per-node counters: the only record of its
// activity, which Agent.Stats reads back.
type agentMetrics struct {
	reconnects, applies, epochRejects, reports *metrics.Counter
	termRejects, redirects                     *metrics.Counter
	prepares, commits, aborts                  *metrics.Counter
}

func newAgentMetrics(reg *metrics.Registry, nodeID int) *agentMetrics {
	node := strconv.Itoa(nodeID)
	return &agentMetrics{
		reconnects:   reg.Counter(MetricAgentReconnects, "node", node),
		applies:      reg.Counter(MetricAgentApplies, "node", node),
		epochRejects: reg.Counter(MetricAgentEpochRejects, "node", node),
		termRejects:  reg.Counter(MetricAgentTermRejects, "node", node),
		redirects:    reg.Counter(MetricAgentRedirects, "node", node),
		reports:      reg.Counter(MetricAgentReports, "node", node),
		prepares:     reg.Counter(MetricAgentPrepares, "node", node),
		commits:      reg.Counter(MetricAgentCommits, "node", node),
		aborts:       reg.Counter(MetricAgentAborts, "node", node),
	}
}

// smPtr is a tiny alias so server.go's struct stays readable.
type smPtr = atomic.Pointer[serverMetrics]
