package controller

import (
	"sdme/internal/enforce"
	"sdme/internal/metrics"
	"sdme/internal/topo"
)

// Controller metric family names.
const (
	MetricSolves     = "sdme_controller_solves_total"
	MetricSolveUS    = "sdme_controller_solve_us"
	MetricLambda     = "sdme_controller_lambda"
	MetricLPVars     = "sdme_controller_lp_vars"
	MetricLPIters    = "sdme_controller_lp_iterations"
	MetricPlanSeries = "sdme_controller_weight_vectors"
	// Plan churn is reported as actual delta size — the number of
	// configuration entries added, removed, or reweighted by the latest
	// plan relative to the previous one — not a whole-plan comparison.
	// The churn counter accumulates the total; the three class counters
	// split it; the gauge holds the latest delta's size.
	MetricPlanChurn          = "sdme_controller_plan_churn_total"
	MetricPlanDeltaAdds      = "sdme_controller_plan_delta_added_total"
	MetricPlanDeltaRemoves   = "sdme_controller_plan_delta_removed_total"
	MetricPlanDeltaReweights = "sdme_controller_plan_delta_reweighted_total"
	MetricPlanDeltaSize      = "sdme_controller_plan_delta_entries"
)

// SetMetrics attaches a registry and clock to the controller: every LB
// solve then records its duration (per the clock — virtual in sim-driven
// tests, wall in live deployments), the resulting λ and the program size,
// and every Recompute the size of its delta versus the previous plan. nil
// detaches.
func (c *Controller) SetMetrics(reg *metrics.Registry, clock metrics.Clock) {
	c.metrics = reg
	c.clock = clock
}

// observeSolveStats records solve count, duration, λ and program size
// (plan churn is reported separately, as exact delta sizes, by
// observePlanDelta).
func (c *Controller) observeSolveStats(sol *LBSolution, startUS int64) {
	reg := c.metrics
	if reg == nil {
		return
	}
	reg.Counter(MetricSolves).Inc()
	if c.clock != nil {
		reg.Histogram(MetricSolveUS, metrics.LatencyBucketsUS).Observe(c.clock() - startUS)
	}
	reg.Gauge(MetricLambda).Set(sol.Lambda)
	reg.Gauge(MetricLPVars).Set(float64(sol.Vars))
	reg.Gauge(MetricLPIters).Set(float64(sol.Iterations))
	reg.Gauge(MetricPlanSeries).Set(float64(countVectors(sol.Weights)))
}

// observePlanDelta records the actual size of one plan delta: entries
// added, removed and reweighted (policies, candidate lists and weight
// vectors alike).
func (c *Controller) observePlanDelta(d DeltaStats) {
	reg := c.metrics
	if reg == nil {
		return
	}
	reg.Counter(MetricPlanChurn).Add(int64(d.Total()))
	reg.Counter(MetricPlanDeltaAdds).Add(int64(d.Added))
	reg.Counter(MetricPlanDeltaRemoves).Add(int64(d.Removed))
	reg.Counter(MetricPlanDeltaReweights).Add(int64(d.Reweighted))
	reg.Gauge(MetricPlanDeltaSize).Set(float64(d.Total()))
}

// solveStart returns the clock reading to time a solve from.
func (c *Controller) solveStart() int64 {
	if c.metrics == nil || c.clock == nil {
		return 0
	}
	return c.clock()
}

// Aliases keep controller.go's struct free of a direct metrics import.
type (
	metricsRegistry = metrics.Registry
	clockFunc       = metrics.Clock
	weightPlan      = map[topo.NodeID]map[enforce.WeightKey][]float64
)

func countVectors(w weightPlan) int {
	n := 0
	for _, m := range w {
		n += len(m)
	}
	return n
}

func sameVector(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
