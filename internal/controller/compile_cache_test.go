package controller_test

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/experiments"
	"sdme/internal/metrics"
	"sdme/internal/netaddr"
	"sdme/internal/topo"
)

// Stage 1 keeps two caches: the candidate assignment, until the failed set
// changes, and each chain instance's Touched and Hash, taken from the
// previous plan while the instance's policy, demands and assignment stay
// the same. Neither may be visible: after every Recompute of a seeded churn
// — edits, adds, removes, failures, recoveries, demand shifts and a journal
// restore in the middle — the pipeline's plan must have the candidates,
// instances and dependency index a fresh controller compiles from the same
// inputs.
func TestCompileCacheEquivalence(t *testing.T) {
	bed, err := experiments.NewBed(experiments.Config{Topology: "campus", Seed: 11, PoliciesPerClass: 4})
	if err != nil {
		t.Fatal(err)
	}
	opts := controller.Options{Strategy: enforce.LoadBalanced, K: controller.DefaultK()}
	ctl := controller.New(bed.Dep, bed.AllPairs, bed.Table, opts)
	reg := metrics.NewRegistry(nil)
	ctl.SetMetrics(reg, func() int64 { return 0 })
	pipe := ctl.NewPipeline(controller.PipelineOptions{})
	rng := rand.New(rand.NewSource(11))
	down := make(map[topo.NodeID]bool)
	const demandTarget = 4000
	demands := bed.GenerateDemands(demandTarget)

	recompute := func(step int) {
		t.Helper()
		meas := controller.MeasurementsFromFlows(bed.Dep, bed.Table, demands)
		if _, err := pipe.Recompute(meas); err != nil {
			t.Fatalf("step %d: recompute: %v", step, err)
		}
		fresh := controller.New(bed.Dep, bed.AllPairs, bed.Table, opts)
		for id := range down {
			if err := fresh.MarkFailed(id, true); err != nil {
				t.Fatal(err)
			}
		}
		want, err := fresh.CompilePlan(meas, false)
		if err != nil {
			t.Fatalf("step %d: fresh compile: %v", step, err)
		}
		requireSameCompile(t, step, pipe.Plan(), want)
	}

	steps := 120
	if testing.Short() {
		steps = 30
	}
	recompute(-1)
	for step := 0; step < steps; step++ {
		if step == steps/2 {
			pipe = restoreMidChurn(t, ctl, opts, bed, down, rng, recompute)
		}
		churnStep(t, bed, ctl, pipe, rng, down, &demands, demandTarget)
		recompute(step)
	}
	reused := reg.Counter(controller.MetricInstancesReused).Value()
	indexed := reg.Counter(controller.MetricInstancesIndexed).Value()
	if reused == 0 || indexed == 0 {
		t.Fatalf("instances reused %d, indexed %d: the churn must exercise both paths", reused, indexed)
	}
	t.Logf("%d steps: %d instances reused, %d indexed, %d failed middleboxes at end", steps, reused, indexed, len(down))
}

// restoreMidChurn restores the controller in place from a journal whose
// failed set is not the one its cached assignment was computed for: a
// twin over the same inputs journals its deployment (an empty failed
// set), the controller fails one more middlebox and recomputes (so the
// cache holds the larger failed set's assignment), then it restores the
// journal and returns the pipeline a restored controller starts.
func restoreMidChurn(t *testing.T, ctl *controller.Controller, opts controller.Options, bed *experiments.Bed,
	down map[topo.NodeID]bool, rng *rand.Rand, recompute func(step int)) *controller.Pipeline {
	t.Helper()
	j, err := controller.OpenJournal(filepath.Join(t.TempDir(), "controller.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := controller.New(bed.Dep, bed.AllPairs, bed.Table, opts).SetJournal(j); err != nil {
		t.Fatal(err)
	}
	st, err := j.Replay()
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}

	before := ctl.NewPipeline(controller.PipelineOptions{})
	id, ok := failableMB(bed.Dep, down, rng)
	if !ok {
		t.Fatal("no middlebox can fail before the restore")
	}
	if err := ctl.MarkFailed(id, true); err != nil {
		t.Fatal(err)
	}
	down[id] = true
	before.NodeChanged(id)
	if _, err := before.Recompute(nil); err != nil {
		t.Fatal(err)
	}
	stale := before.Plan().Candidates

	if err := ctl.RestoreFromJournal(st); err != nil {
		t.Fatal(err)
	}
	clear(down)
	fresh := controller.New(bed.Dep, bed.AllPairs, bed.Table, controller.Options{K: controller.DefaultK()})
	for _, id := range st.Failed {
		down[id] = true
		if err := fresh.MarkFailed(id, true); err != nil {
			t.Fatal(err)
		}
	}
	if want, err := fresh.CompilePlan(nil, false); err != nil {
		t.Fatal(err)
	} else if reflect.DeepEqual(stale, want.Candidates) {
		t.Fatal("the restore does not change the assignment: a stale cache would go unseen")
	}
	pipe := ctl.NewPipeline(controller.PipelineOptions{})
	recompute(-2)
	return pipe
}

// requireSameCompile compares what Stage 1 produced with a fresh compile.
func requireSameCompile(t *testing.T, step int, got, want *controller.Plan) {
	t.Helper()
	if !reflect.DeepEqual(got.Candidates, want.Candidates) {
		t.Fatalf("step %d: candidates differ from a fresh compile's", step)
	}
	if !reflect.DeepEqual(got.Order, want.Order) {
		t.Fatalf("step %d: instances %v, fresh compile %v", step, got.Order, want.Order)
	}
	for _, k := range want.Order {
		g, w := got.Instances[k], want.Instances[k]
		if g.Hash != w.Hash || !reflect.DeepEqual(g.Touched, w.Touched) {
			t.Fatalf("step %d: instance %+v has hash %#x touching %v, fresh compile %#x touching %v",
				step, k, g.Hash, g.Touched, w.Hash, w.Touched)
		}
	}
	if !reflect.DeepEqual(got.Index, want.Index) {
		t.Fatalf("step %d: dependency index differs from a fresh compile's", step)
	}
}

// Recompute's stage histograms must account for nearly all of its time, or
// the split says little about where an edit's time goes.
func TestRecomputeStageCoverage(t *testing.T) {
	bed, err := experiments.NewBed(experiments.Config{Topology: "campus", Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	ctl := controller.New(bed.Dep, bed.AllPairs, bed.Table, controller.Options{Strategy: enforce.LoadBalanced, K: controller.DefaultK()})
	j, err := controller.OpenJournal(filepath.Join(t.TempDir(), "controller.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := ctl.SetJournal(j); err != nil {
		t.Fatal(err)
	}
	// The ratio is unit-free, so the clock reads nanoseconds: microseconds
	// would round the short stages of a millisecond Recompute away.
	t0 := time.Now()
	reg := metrics.NewRegistry(nil)
	ctl.SetMetrics(reg, func() int64 { return time.Since(t0).Nanoseconds() })
	pipe := ctl.NewPipeline(controller.PipelineOptions{})
	meas := controller.MeasurementsFromFlows(bed.Dep, bed.Table, bed.GenerateDemands(5000))
	for i := 0; i < 20; i++ {
		if i%10 == 9 {
			meas = controller.MeasurementsFromFlows(bed.Dep, bed.Table, bed.GenerateDemands(5000))
		} else if i > 0 {
			togglePort(bed, pipe, i)
		}
		if _, err := pipe.Recompute(meas); err != nil {
			t.Fatal(err)
		}
	}

	total := reg.Histogram(controller.MetricRecomputeUS, nil)
	var staged int64
	for _, stage := range []string{"compile", "solve", "diff", "journal"} {
		h := reg.Histogram(controller.MetricStageUS, nil, "stage", stage)
		if h.Count() != total.Count() {
			t.Fatalf("stage %s observed %d times, Recompute %d", stage, h.Count(), total.Count())
		}
		staged += h.Sum()
	}
	if share := float64(staged) / float64(total.Sum()); share < 0.9 {
		t.Fatalf("stages cover %.3f of Recompute's time, want >= 0.9", share)
	} else {
		t.Logf("stages cover %.3f of %d Recomputes (%.2f ms)", share, total.Count(), float64(total.Sum())/1e6)
	}
	if reg.Counter(controller.MetricInstancesReused).Value() == 0 {
		t.Fatal("no instance was reused across 17 port edits")
	}
}

// togglePort widens or narrows the destination port range of one policy
// that the bed's demands exercise, and marks it edited: the edit the
// benchmark's control loop makes most.
func togglePort(bed *experiments.Bed, pipe *controller.Pipeline, i int) {
	p := bed.Classed[i%len(bed.Classed)].Policy
	p = bed.Table.Get(p.ID)
	d := p.Desc
	if d.DstPort.IsSingle() {
		d.DstPort.Hi = d.DstPort.Lo + 1
	} else {
		d.DstPort = netaddr.SinglePort(d.DstPort.Lo)
	}
	bed.Table.Update(p.ID, d, p.Actions)
	pipe.PolicyChanged(p.ID)
}

// BenchmarkRecomputeEdit is the control loop's common step without the
// wire: one port edit on campus, then Recompute (compile, a scoped solve,
// diff).
func BenchmarkRecomputeEdit(b *testing.B) {
	bed, err := experiments.NewBed(experiments.Config{Topology: "campus", Seed: 20})
	if err != nil {
		b.Fatal(err)
	}
	ctl := controller.New(bed.Dep, bed.AllPairs, bed.Table, controller.Options{Strategy: enforce.LoadBalanced, K: controller.DefaultK()})
	pipe := ctl.NewPipeline(controller.PipelineOptions{})
	meas := controller.MeasurementsFromFlows(bed.Dep, bed.Table, bed.GenerateDemands(20000))
	if _, err := pipe.Recompute(meas); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		togglePort(bed, pipe, i)
		if _, err := pipe.Recompute(meas); err != nil {
			b.Fatal(err)
		}
	}
}
