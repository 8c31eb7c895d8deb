package controller_test

import (
	"math"
	"math/rand"
	"testing"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/experiments"
	"sdme/internal/metrics"
	"sdme/internal/policy"
)

// rebalanceBed is a campus deployment with the control loop's load
// balancing and a demand set whose volumes a rebalance redraws: every
// flow keeps its source and policy, so the LP keeps its rows and terms
// and only the right-hand sides move.
type rebalanceBed struct {
	bed     *experiments.Bed
	demands []enforce.FlowDemand
	rng     *rand.Rand
}

func newRebalanceBed(t *testing.T, seed int64) *rebalanceBed {
	t.Helper()
	bed, err := experiments.NewBed(experiments.Config{Topology: "campus", Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return &rebalanceBed{bed: bed, demands: bed.GenerateDemands(400000), rng: rand.New(rand.NewSource(seed))}
}

func (b *rebalanceBed) controller() *controller.Controller {
	return controller.New(b.bed.Dep, b.bed.AllPairs, b.bed.Table, controller.Options{
		Strategy: enforce.LoadBalanced,
		K:        controller.DefaultK(),
	})
}

// redraw gives every flow a new volume in [0.5, 1.5) of its base.
func (b *rebalanceBed) redraw() controller.Measurements {
	moved := make([]enforce.FlowDemand, len(b.demands))
	for i, d := range b.demands {
		moved[i] = d
		moved[i].Packets = 1 + int64(float64(d.Packets)*(0.5+b.rng.Float64()))
	}
	return controller.MeasurementsFromFlows(b.bed.Dep, b.bed.Table, moved)
}

// spread is the second objective's value recomputed from a solution's
// expected loads (every capacity is 1 here): Σ_f max load − 0.01·Σ_f min
// load over the loaded providers of each type.
func spread(b *rebalanceBed, sol *controller.LBSolution) float64 {
	maxF := make(map[policy.FuncType]float64)
	minF := make(map[policy.FuncType]float64)
	for x, l := range sol.ExpectedLoads {
		for _, f := range b.bed.Dep.FuncsOf(x) {
			if v, ok := maxF[f]; !ok || l > v {
				maxF[f] = l
			}
			if v, ok := minF[f]; !ok || l < v {
				minF[f] = l
			}
		}
	}
	var s float64
	for f := range maxF {
		s += maxF[f] - 0.01*minF[f]
	}
	return s
}

// TestWarmRebalancesMatchCold runs 60 rebalances (12 under -short) of one
// program shape through a pipeline, where every full solve after the first
// starts from the previous one's basis, and solves each again cold on a
// fresh controller: λ must agree within 1e-9 relative and the spread
// objective within 1e-6, and the warm starts must be taken.
func TestWarmRebalancesMatchCold(t *testing.T) {
	rebalances := 60
	if testing.Short() {
		rebalances = 12
	}
	b := newRebalanceBed(t, 20)
	ctl := b.controller()
	reg := metrics.NewRegistry(nil)
	ctl.SetMetrics(reg, nil)
	pipe := ctl.NewPipeline(controller.PipelineOptions{DirtyThreshold: -1})
	warmPivots, coldPivots := 0, 0
	for i := 0; i < rebalances; i++ {
		meas := b.redraw()
		upd, err := pipe.Recompute(meas)
		if err != nil {
			t.Fatalf("rebalance %d: %v", i, err)
		}
		warm := upd.Solution
		cold, err := b.controller().NewPipeline(controller.PipelineOptions{}).Recompute(meas)
		if err != nil {
			t.Fatalf("rebalance %d, cold: %v", i, err)
		}
		if got, want := warm.Lambda, cold.Solution.Lambda; math.Abs(got-want) > 1e-9*math.Abs(want) {
			t.Fatalf("rebalance %d: λ %v from the start basis, %v cold", i, got, want)
		}
		if got, want := spread(b, warm), spread(b, cold.Solution); math.Abs(got-want) > 1e-6*math.Max(1, math.Abs(want)) {
			t.Fatalf("rebalance %d: spread objective %v from the start basis, %v cold", i, got, want)
		}
		wantStart := map[bool]string{true: "cold", false: "warm"}[i == 0]
		if got := warm.Start.String(); got != wantStart {
			t.Fatalf("rebalance %d: %s solve, want %s", i, got, wantStart)
		}
		if i > 0 {
			warmPivots += warm.Iterations
			coldPivots += cold.Solution.Iterations
		}
	}
	starts := func(kind string) int64 { return reg.Counter(controller.MetricLPStarts, "kind", kind).Value() }
	if starts("cold") != 1 || starts("warm") != int64(rebalances-1) || starts("fallback") != 0 {
		t.Errorf("starts cold/warm/fallback = %d/%d/%d, want 1/%d/0", starts("cold"), starts("warm"), starts("fallback"), rebalances-1)
	}
	if dual := reg.Counter(controller.MetricLPPivots, "stage", "dual").Value(); dual == 0 {
		t.Error("no dual simplex pivot counted")
	}
	t.Logf("pivots per rebalance: %.1f from the start basis, %.1f cold",
		float64(warmPivots)/float64(rebalances-1), float64(coldPivots)/float64(rebalances-1))
	if warmPivots >= coldPivots {
		t.Errorf("warm starts took %d pivots, cold solves %d", warmPivots, coldPivots)
	}
}

// TestWarmStartCounters follows the start basis through a changed program
// and a rollback: a rebalance of the same program starts warm, one whose
// program lost a policy's rows falls back to a cold solve, and Rollback
// restores the basis with the plan, so the rebalance after it is warm
// again.
func TestWarmStartCounters(t *testing.T) {
	b := newRebalanceBed(t, 21)
	ctl := b.controller()
	reg := metrics.NewRegistry(nil)
	var now int64
	ctl.SetMetrics(reg, func() int64 { now += 10; return now }) // every reading 10 µs on
	pipe := ctl.NewPipeline(controller.PipelineOptions{DirtyThreshold: -1})
	starts := func(kind string) int64 { return reg.Counter(controller.MetricLPStarts, "kind", kind).Value() }
	step := func(meas controller.Measurements, want string) {
		t.Helper()
		before := starts(want)
		upd, err := pipe.Recompute(meas)
		if err != nil {
			t.Fatal(err)
		}
		if got := upd.Solution.Start.String(); got != want || starts(want) != before+1 {
			t.Fatalf("%s solve (counter %d → %d), want %s", got, before, starts(want), want)
		}
	}

	step(b.redraw(), "cold")
	step(b.redraw(), "warm")

	// Without one policy's demand its instance leaves the program.
	meas := b.redraw()
	var dropped int
	for k := range meas {
		dropped = k.PolicyID
		break
	}
	for k := range meas {
		if k.PolicyID == dropped {
			delete(meas, k)
		}
	}
	step(meas, "fallback")
	if err := pipe.Rollback(); err != nil {
		t.Fatal(err)
	}
	step(b.redraw(), "warm")
	// The solve is timed inside the Recompute: fewer clock readings.
	solve := reg.Histogram(controller.MetricSolveUS, metrics.LatencyBucketsUS)
	recompute := reg.Histogram(controller.MetricRecomputeUS, metrics.LatencyBucketsUS)
	if solve.Count() != 4 || recompute.Count() != 4 || solve.Sum() >= recompute.Sum() {
		t.Errorf("%s: %d observations summing to %d µs; %s: %d summing to %d µs",
			controller.MetricSolveUS, solve.Count(), solve.Sum(), controller.MetricRecomputeUS, recompute.Count(), recompute.Sum())
	}
}
