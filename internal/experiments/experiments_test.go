package experiments

import (
	"bytes"
	"strings"
	"testing"

	"sdme/internal/enforce"
	"sdme/internal/policy"
)

// smallCfg keeps unit tests fast: reduced traffic, default topologies.
func smallCfg(topology string) Config {
	return Config{
		Topology:         topology,
		Seed:             7,
		PoliciesPerClass: 3,
		TrafficPoints:    []int{150000, 300000},
	}
}

func TestFigureShapeOnCampus(t *testing.T) {
	res, err := RunMaxLoadFigure(smallCfg("campus"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Topology != "campus" || len(res.Points) != 2 {
		t.Fatalf("result shape: %+v", res)
	}
	for i, pt := range res.Points {
		if pt.ActualTraffic < pt.TargetTraffic {
			t.Errorf("point %d: actual %d < target %d", i, pt.ActualTraffic, pt.TargetTraffic)
		}
		for _, f := range Funcs {
			hp := pt.MaxLoad[f][enforce.HotPotato]
			lb := pt.MaxLoad[f][enforce.LoadBalanced]
			if hp <= 0 {
				t.Errorf("point %d %v: HP max load %d", i, f, hp)
			}
			// The paper's core claim, at every point and function.
			if lb > hp {
				t.Errorf("point %d %v: LB max %d > HP max %d", i, f, lb, hp)
			}
		}
		if pt.Lambda <= 0 {
			t.Errorf("point %d: lambda %v", i, pt.Lambda)
		}
	}
	// Linear growth: doubling traffic roughly doubles every max load
	// (some slack for power-law sampling noise at this reduced scale).
	for _, f := range Funcs {
		for _, s := range Strategies {
			a := float64(res.Points[0].MaxLoad[f][s])
			b := float64(res.Points[1].MaxLoad[f][s])
			if b < a*1.4 || b > a*2.8 {
				t.Errorf("%v/%v growth %v -> %v not increasing plausibly", f, s, a, b)
			}
		}
	}
}

func TestRandBetweenHPAndLBOnAverage(t *testing.T) {
	// Rand's max load typically sits between LB and HP; assert the
	// weaker, robust property: LB <= Rand on the bottleneck function
	// (IDS, which every flow crosses).
	res, err := RunMaxLoadFigure(smallCfg("campus"))
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range res.Points {
		lb := pt.MaxLoad[policy.FuncIDS][enforce.LoadBalanced]
		rd := pt.MaxLoad[policy.FuncIDS][enforce.Random]
		if lb > rd+rd/10 {
			t.Errorf("point %d: LB IDS max %d well above Rand %d", i, lb, rd)
		}
	}
}

func TestTableIIIShape(t *testing.T) {
	rows, err := RunLoadDistributionTable(smallCfg("campus"), 150000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 { // 4 functions × {max, min}
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	for i := 0; i < len(rows); i += 2 {
		max, min := rows[i], rows[i+1]
		if !max.IsMax || min.IsMax || max.Func != min.Func {
			t.Fatalf("row pairing broken at %d: %+v %+v", i, max, min)
		}
		for _, s := range Strategies {
			if max.ByStrat[s] < min.ByStrat[s] {
				t.Errorf("%v/%v: max %d < min %d", max.Func, s, max.ByStrat[s], min.ByStrat[s])
			}
		}
		// LB's spread (max-min) never exceeds HP's on any function: the
		// Table III story.
		hpSpread := max.ByStrat[enforce.HotPotato] - min.ByStrat[enforce.HotPotato]
		lbSpread := max.ByStrat[enforce.LoadBalanced] - min.ByStrat[enforce.LoadBalanced]
		if lbSpread > hpSpread {
			t.Errorf("%v: LB spread %d > HP spread %d", max.Func, lbSpread, hpSpread)
		}
	}
}

func TestWaxmanFigureRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("waxman bed is slow for -short")
	}
	cfg := smallCfg("waxman")
	cfg.TrafficPoints = []int{100000}
	res, err := RunMaxLoadFigure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pt := res.Points[0]
	for _, f := range Funcs {
		if pt.MaxLoad[f][enforce.LoadBalanced] > pt.MaxLoad[f][enforce.HotPotato] {
			t.Errorf("waxman %v: LB max above HP max", f)
		}
	}
}

func TestUnknownTopology(t *testing.T) {
	if _, err := NewBed(Config{Topology: "torus"}); err == nil {
		t.Error("unknown topology should fail")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *FigureResult {
		cfg := smallCfg("campus")
		cfg.TrafficPoints = []int{100000}
		res, err := RunMaxLoadFigure(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for _, f := range Funcs {
		for _, s := range Strategies {
			if a.Points[0].MaxLoad[f][s] != b.Points[0].MaxLoad[f][s] {
				t.Fatalf("non-deterministic result for %v/%v", f, s)
			}
		}
	}
}

func TestCandidateKAblation(t *testing.T) {
	cfg := smallCfg("campus")
	points, err := RunCandidateKAblation(cfg, 100000, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	// λ must be monotonically non-increasing in k: more candidates can
	// only help the optimum.
	for i := 1; i < len(points); i++ {
		if points[i].Lambda > points[i-1].Lambda+1e-6 {
			t.Errorf("λ increased with k: %v", points)
		}
	}
	// k=1 is hot-potato: λ equals the realized IDS max only if IDS is
	// the argmax overall; assert the weaker invariant λ > 0.
	if points[0].Lambda <= 0 {
		t.Error("λ at k=1 missing")
	}
}

func TestStateAblation(t *testing.T) {
	off, err := RunStateAblation(3, 20, 4, 1480, false)
	if err != nil {
		t.Fatal(err)
	}
	on, err := RunStateAblation(3, 20, 4, 1480, true)
	if err != nil {
		t.Fatal(err)
	}
	if off.Delivered == 0 || on.Delivered == 0 {
		t.Fatalf("no deliveries: off=%+v on=%+v", off, on)
	}
	if on.FragmentsCreated >= off.FragmentsCreated {
		t.Errorf("label switching should cut fragmentation: %d vs %d",
			on.FragmentsCreated, off.FragmentsCreated)
	}
	if on.LabelTx == 0 || off.LabelTx != 0 {
		t.Errorf("label usage wrong: on=%d off=%d", on.LabelTx, off.LabelTx)
	}
	if on.EncapOverheadBytes >= off.EncapOverheadBytes {
		t.Errorf("encap overhead should drop: %d vs %d", on.EncapOverheadBytes, off.EncapOverheadBytes)
	}
	if on.ControlMessages == 0 || off.ControlMessages != 0 {
		t.Errorf("control messages wrong: on=%d off=%d", on.ControlMessages, off.ControlMessages)
	}
	// The flow table bounds classification work in both modes: far fewer
	// classifications than processing events (packetsPerFlow > 1).
	if off.Classifications >= off.PacketsProcessed {
		t.Errorf("flow table ineffective: %d classifications for %d processings",
			off.Classifications, off.PacketsProcessed)
	}
}

// TestEq1VsEq2 is the paper's argument for Eq. (2) (§III-C): the same
// optimum from a smaller program. Each count covers the whole
// lexicographic solve, both objectives on one tableau. Solve time is
// reported, not asserted. Eq. (1) grows with the number of measured
// (src, dst, policy) triples, and the Waxman bed has more subnets, so it
// runs at lower traffic (a 900-variable fine program; at 15,000 packets
// it would be 10,000 variables and seconds of dense pivots).
func TestEq1VsEq2(t *testing.T) {
	for _, tc := range []struct {
		topology string
		traffic  int
	}{{"campus", 15000}, {"waxman", 1000}} {
		topology := tc.topology
		cmp, err := RunEq1VsEq2(Config{Topology: topology, Seed: 11, PoliciesPerClass: 2}, tc.traffic)
		if err != nil {
			t.Fatal(err)
		}
		if cmp.FineVars <= cmp.AggVars {
			t.Errorf("%s: Eq.(1) should need more variables: %d vs %d", topology, cmp.FineVars, cmp.AggVars)
		}
		if cmp.FineConstraints <= cmp.AggConstraints {
			t.Errorf("%s: Eq.(1) should need more rows: %d vs %d", topology, cmp.FineConstraints, cmp.AggConstraints)
		}
		if cmp.FineIterations <= cmp.AggIterations {
			t.Errorf("%s: Eq.(1) should need more pivots: %d vs %d", topology, cmp.FineIterations, cmp.AggIterations)
		}
		if cmp.AggLambda > cmp.FineLambda+1e-6 {
			t.Errorf("%s: aggregated optimum %v worse than fine %v", topology, cmp.AggLambda, cmp.FineLambda)
		}
		if cmp.AggLambda <= 0 {
			t.Errorf("%s: λ missing", topology)
		}
		t.Logf("%s: Eq.(2) %d vars, %d rows, %d pivots, %v; Eq.(1) %d vars, %d rows, %d pivots, %v", topology,
			cmp.AggVars, cmp.AggConstraints, cmp.AggIterations, cmp.AggSolve,
			cmp.FineVars, cmp.FineConstraints, cmp.FineIterations, cmp.FineSolve)
	}
}

func TestRendering(t *testing.T) {
	cfg := smallCfg("campus")
	cfg.TrafficPoints = []int{100000}
	res, err := RunMaxLoadFigure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Table().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "traffic,FW_HP_max") {
		t.Errorf("csv header = %q", lines[0])
	}
	if md := res.Table().Markdown(); !strings.HasPrefix(md, "| traffic | FW_HP_max | FW_Rand_max | FW_LB_max |") {
		t.Error("figure markdown malformed")
	}

	rows, err := RunLoadDistributionTable(cfg, 100000)
	if err != nil {
		t.Fatal(err)
	}
	md := LoadTable(rows).Markdown()
	if !strings.Contains(md, "| FW | max |") || !strings.Contains(md, "| TM | min |") {
		t.Errorf("table markdown malformed:\n%s", md)
	}
	buf.Reset()
	if err := LoadTable(rows).WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := len(strings.Split(strings.TrimSpace(buf.String()), "\n")); got != 9 {
		t.Errorf("table csv lines = %d, want 9", got)
	}

	ks, err := RunCandidateKAblation(cfg, 10000, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if md := KAblationTable(ks).Markdown(); !strings.Contains(md, "| k |") {
		t.Error("k ablation markdown malformed")
	}
	off, err := RunStateAblation(3, 5, 3, 600, false)
	if err != nil {
		t.Fatal(err)
	}
	on, err := RunStateAblation(3, 5, 3, 600, true)
	if err != nil {
		t.Fatal(err)
	}
	if md := StateAblationTable(off, on).Markdown(); !strings.Contains(md, "fragments created") {
		t.Error("state ablation markdown malformed")
	}
	cmp, err := RunEq1VsEq2(Config{Topology: "campus", Seed: 11, PoliciesPerClass: 2}, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if md := cmp.Table().Markdown(); !strings.Contains(md, "variables") {
		t.Error("formulation markdown malformed")
	}
}

func TestPathStretch(t *testing.T) {
	base, points, err := RunPathStretch(smallCfg("campus"), 100000)
	if err != nil {
		t.Fatal(err)
	}
	if base <= 0 {
		t.Fatalf("baseline = %v", base)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		// Enforcement always detours: stretch > 1.
		if p.Stretch <= 1 {
			t.Errorf("%v stretch = %v, want > 1", p.Strategy, p.Stretch)
		}
		if p.Stretch > 6 {
			t.Errorf("%v stretch = %v, implausibly large", p.Strategy, p.Stretch)
		}
	}
	// Hot-potato is the locality-greedy strategy: its path cost must not
	// exceed LB's (which trades locality for balance).
	hp, lb := points[0], points[2]
	if hp.AvgPathCost > lb.AvgPathCost+0.5 {
		t.Errorf("HP path cost %v above LB %v", hp.AvgPathCost, lb.AvgPathCost)
	}
	if md := StretchTable(base, points).Markdown(); !strings.Contains(md, "stretch vs baseline") {
		t.Error("stretch markdown malformed")
	}
}

func TestQueueingAblation(t *testing.T) {
	// Service rate chosen so HP's hottest middlebox saturates while the
	// aggregate capacity is ample: LB must deliver dramatically lower
	// queueing than HP.
	points, err := RunQueueingAblation(7, 60, 30, 9000)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	hp, lb := points[0], points[2]
	if hp.Strategy != enforce.HotPotato || lb.Strategy != enforce.LoadBalanced {
		t.Fatalf("order: %+v", points)
	}
	if hp.Delivered == 0 || lb.Delivered == 0 {
		t.Fatalf("no deliveries: %+v", points)
	}
	if lb.AvgQueueUS >= hp.AvgQueueUS {
		t.Errorf("LB avg queue %v not below HP %v", lb.AvgQueueUS, hp.AvgQueueUS)
	}
	if lb.MaxLatencyUS >= hp.MaxLatencyUS {
		t.Errorf("LB max latency %v not below HP %v", lb.MaxLatencyUS, hp.MaxLatencyUS)
	}
	if md := QueueingTable(points).Markdown(); !strings.Contains(md, "queue wait") {
		t.Error("queueing markdown malformed")
	}
}

func TestMultiSeed(t *testing.T) {
	cfg := smallCfg("campus")
	sum, err := RunMultiSeed(cfg, 100000, []int64{1, 3, 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range Funcs {
		for _, s := range Strategies {
			if sum.Min[f][s] <= 0 || sum.Max[f][s] < sum.Min[f][s] {
				t.Errorf("%v/%v range [%d,%d] invalid", f, s, sum.Min[f][s], sum.Max[f][s])
			}
			mean := sum.Mean[f][s]
			if mean < float64(sum.Min[f][s])-1 || mean > float64(sum.Max[f][s])+1 {
				t.Errorf("%v/%v mean %v outside range", f, s, mean)
			}
		}
	}
	// The core claim holds in the MEAN across seeds even if a single
	// draw can violate it: LB mean max below HP mean max everywhere.
	for _, f := range Funcs {
		if sum.Mean[f][enforce.LoadBalanced] >= sum.Mean[f][enforce.HotPotato] {
			t.Errorf("%v: LB mean %v not below HP mean %v",
				f, sum.Mean[f][enforce.LoadBalanced], sum.Mean[f][enforce.HotPotato])
		}
	}
	if md := sum.Table().Markdown(); strings.Count(md, "\n") != 2+len(Funcs)*len(Strategies) {
		t.Error("multi-seed markdown malformed")
	}
}

func TestDriftExperiment(t *testing.T) {
	cfg := smallCfg("campus")
	rows, err := RunDriftExperiment(cfg, 80000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Epoch 0: both controllers solved on this epoch's traffic — equal.
	if rows[0].MaxStale != rows[0].MaxRebalanced {
		t.Errorf("epoch 0 should tie: %d vs %d", rows[0].MaxStale, rows[0].MaxRebalanced)
	}
	// Across the drifted epochs, rebalancing must win in aggregate, and
	// per epoch it must never lose beyond hash-sampling noise. (The
	// total/|IDS| floor is NOT generally achievable under a surge — the
	// candidate sets M_x^e bound how far one subnet's traffic can
	// spread — so the floor is reported but not asserted as reachable.)
	var staleSum, rebalSum int64
	for _, r := range rows[1:] {
		staleSum += r.MaxStale
		rebalSum += r.MaxRebalanced
		if float64(r.MaxRebalanced) > float64(r.MaxStale)*1.05+1 {
			t.Errorf("epoch %d: rebalanced max %d worse than stale %d", r.Epoch, r.MaxRebalanced, r.MaxStale)
		}
		if float64(r.MaxRebalanced) < r.Ideal*0.99 {
			t.Errorf("epoch %d: max %d below the information floor %.0f (accounting bug)", r.Epoch, r.MaxRebalanced, r.Ideal)
		}
	}
	if rebalSum >= staleSum {
		t.Errorf("rebalancing did not help under drift: %d vs %d", rebalSum, staleSum)
	}
	if md := DriftTable(rows).Markdown(); !strings.Contains(md, "stale weights") {
		t.Error("drift markdown malformed")
	}
}

// BenchmarkEvaluator10M measures the flow-level evaluator's throughput at
// the paper's largest operating point (engineering metric, not a paper
// figure).
func BenchmarkEvaluator10M(b *testing.B) {
	bed, err := NewBed(Config{Topology: "campus", Seed: 20})
	if err != nil {
		b.Fatal(err)
	}
	demands := bed.GenerateDemands(10000000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report, _, err := bed.RunStrategy(enforce.HotPotato, demands)
		if err != nil {
			b.Fatal(err)
		}
		if report.MaxLoad(bed.Dep, policy.FuncIDS) == 0 {
			b.Fatal("empty report")
		}
	}
}
