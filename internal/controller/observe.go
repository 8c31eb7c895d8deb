package controller

import (
	"sdme/internal/enforce"
	"sdme/internal/lp"
	"sdme/internal/metrics"
	"sdme/internal/topo"
)

// Controller metric family names.
const (
	MetricSolves = "sdme_controller_solves_total"
	// MetricSolveUS times one load-balancing LP, built and solved (what
	// LBSolution.SolveTime measures), MetricRecomputeUS a whole Recompute:
	// compile, LP, diff and the journal append. Both read the
	// controller's clock, virtual under the simulator.
	MetricSolveUS     = "sdme_controller_solve_us"
	MetricRecomputeUS = "sdme_controller_recompute_us"
	// MetricStageUS splits a Recompute by stage, label stage=compile|
	// solve|diff|journal (solve includes the dirty set and the plan
	// check, and runs without an LP on HP/Random). MetricInstancesReused
	// counts the chain instances Stage 1 took unchanged from the previous
	// plan, MetricInstancesIndexed the ones it walked and hashed afresh.
	MetricStageUS          = "sdme_controller_stage_us"
	MetricInstancesReused  = "sdme_controller_instances_reused_total"
	MetricInstancesIndexed = "sdme_controller_instances_indexed_total"
	// MetricLPStarts counts LP solves by path, label kind=cold|warm|
	// fallback (lp.Start); MetricLPPivots their pivots by stage, label
	// stage=phase1|lambda|dual|spread.
	MetricLPStarts   = "sdme_controller_lp_starts_total"
	MetricLPPivots   = "sdme_controller_lp_pivots_total"
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
// solve then records its duration, path and pivots, the resulting λ and
// the program size, and every Recompute its duration (per the clock —
// virtual in sim-driven tests, wall in live deployments) and the size of
// its delta versus the previous plan. nil detaches.
func (c *Controller) SetMetrics(reg *metrics.Registry, clock metrics.Clock) {
	c.metrics = reg
	c.clock = clock
}

// observeSolveStats records solve count, duration, λ and program size
// (plan churn is reported separately, as exact delta sizes, by
// observePlanDelta).
func (c *Controller) observeSolveStats(sol *LBSolution) {
	reg := c.metrics
	if reg == nil {
		return
	}
	reg.Counter(MetricSolves).Inc()
	if c.clock != nil {
		reg.Histogram(MetricSolveUS, metrics.LatencyBucketsUS).Observe(sol.clockUS)
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

// lpStages names lp.Solution.Pivots' stages for MetricLPPivots.
var lpStages = [...]string{
	lp.StagePhase1: "phase1",
	lp.StageFirst:  "lambda",
	lp.StageDual:   "dual",
	lp.StageSecond: "spread",
}

// observeLP records one LP solve's path and its pivots per stage.
func (c *Controller) observeLP(sol *lp.Solution) {
	reg := c.metrics
	if reg == nil {
		return
	}
	reg.Counter(MetricLPStarts, "kind", sol.Start.String()).Inc()
	for stage, n := range sol.Pivots {
		reg.Counter(MetricLPPivots, "stage", lpStages[stage]).Add(int64(n))
	}
}

// clockUS reads the controller's clock (0 without metrics).
func (c *Controller) clockUS() int64 {
	if c.metrics == nil || c.clock == nil {
		return 0
	}
	return c.clock()
}

// Recompute's stages, in order, as MetricStageUS labels them.
const (
	stageCompile = iota
	stageSolve
	stageDiff
	stageJournal
	numStages
)

var stageNames = [numStages]string{"compile", "solve", "diff", "journal"}

// stageStamps are the clock readings at a Recompute's start and at the
// end of each stage.
type stageStamps [numStages + 1]int64

// observeRecompute records one Recompute's duration, its stages and its
// instance reuse.
func (c *Controller) observeRecompute(at *stageStamps, reused, indexed int) {
	reg := c.metrics
	if reg == nil || c.clock == nil {
		return
	}
	reg.Histogram(MetricRecomputeUS, metrics.LatencyBucketsUS).Observe(c.clock() - at[0])
	for i, name := range stageNames {
		reg.Histogram(MetricStageUS, metrics.LatencyBucketsUS, "stage", name).Observe(at[i+1] - at[i])
	}
	reg.Counter(MetricInstancesReused).Add(int64(reused))
	reg.Counter(MetricInstancesIndexed).Add(int64(indexed))
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
