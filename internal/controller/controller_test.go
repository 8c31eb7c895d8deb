package controller_test

import (
	"math"
	"math/rand"
	"testing"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/netaddr"
	"sdme/internal/policy"
	"sdme/internal/route"
	"sdme/internal/topo"
	"sdme/internal/workload"
)

// bed builds a small campus with the standard test middlebox population.
type bed struct {
	g   *topo.Graph
	dep *enforce.Deployment
	ap  *route.AllPairs
	tbl *policy.Table
}

func newBed(t testing.TB, seed int64, buildPolicies func(tbl *policy.Table)) *bed {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := topo.Campus(topo.CampusConfig{Gateways: 2, CoreRouters: 6, EdgeRouters: 4, WithProxies: true}, rng)
	dep, err := enforce.NewDeployment(g)
	if err != nil {
		t.Fatal(err)
	}
	cores := g.NodesOfKind(topo.KindCoreRouter)
	dep.AddMiddlebox(cores[0], "fw1", policy.FuncFW)
	dep.AddMiddlebox(cores[3], "fw2", policy.FuncFW)
	dep.AddMiddlebox(cores[5], "fw3", policy.FuncFW)
	dep.AddMiddlebox(cores[1], "ids1", policy.FuncIDS)
	dep.AddMiddlebox(cores[4], "ids2", policy.FuncIDS)
	dep.AddMiddlebox(cores[2], "wp1", policy.FuncWP)
	dep.AddMiddlebox(cores[3], "tm1", policy.FuncTM)

	tbl := policy.NewTable()
	buildPolicies(tbl)
	return &bed{g: g, dep: dep, ap: route.NewAllPairs(g, route.RouterTransitOnly(g)), tbl: tbl}
}

// deploy takes a fresh controller through the control loop's first turn:
// compile (and under LB solve) the first plan over meas, build the nodes.
func deploy(t *testing.T, ctl *controller.Controller, meas controller.Measurements) (*controller.Pipeline, map[topo.NodeID]*enforce.Node, *controller.PlanUpdate) {
	t.Helper()
	pipe := ctl.NewPipeline(controller.PipelineOptions{})
	upd, err := pipe.Recompute(meas)
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := ctl.BuildNodesFromPlan(upd.Plan)
	if err != nil {
		t.Fatal(err)
	}
	return pipe, nodes, upd
}

// recompute runs one later turn of the loop in process: Recompute over
// meas, then the deltas applied to the nodes in place.
func recompute(t *testing.T, pipe *controller.Pipeline, nodes map[topo.NodeID]*enforce.Node, meas controller.Measurements) *controller.PlanUpdate {
	t.Helper()
	upd, err := pipe.Recompute(meas)
	if err != nil {
		t.Fatal(err)
	}
	if err := controller.ApplyDeltas(nodes, upd.Deltas); err != nil {
		t.Fatal(err)
	}
	return upd
}

// solveLB is one full solve of the given formulation on a fresh pipeline.
func solveLB(t *testing.T, ctl *controller.Controller, meas controller.Measurements, fine bool) *controller.LBSolution {
	t.Helper()
	upd, err := ctl.NewPipeline(controller.PipelineOptions{Fine: fine}).Recompute(meas)
	if err != nil {
		t.Fatal(err)
	}
	if upd.Solution == nil {
		t.Fatal("Recompute ran no LP")
	}
	return upd.Solution
}

func webPolicy(tbl *policy.Table) {
	d := policy.NewDescriptor()
	d.DstPort = netaddr.SinglePort(80)
	tbl.Add(d, policy.ActionList{policy.FuncFW, policy.FuncIDS})
}

func flow(src, dst int, port uint16, n uint16) netaddr.FiveTuple {
	return netaddr.FiveTuple{
		Src: topo.HostAddr(src, int(n%150)+1), Dst: topo.HostAddr(dst, int(n%150)+1),
		SrcPort: 20000 + n, DstPort: port, Proto: netaddr.ProtoTCP,
	}
}

func TestCandidateAssignment(t *testing.T) {
	b := newBed(t, 1, webPolicy)
	k := map[policy.FuncType]int{policy.FuncFW: 2, policy.FuncIDS: 2, policy.FuncWP: 1, policy.FuncTM: 1}
	ctl := controller.New(b.dep, b.ap, b.tbl, controller.Options{Strategy: enforce.HotPotato, K: k})

	for _, x := range append(append([]topo.NodeID{}, b.dep.ProxyNodes...), b.dep.MBNodes...) {
		cands := ctl.CandidatesOf(x)
		implemented := map[policy.FuncType]bool{}
		for _, f := range b.dep.FuncsOf(x) {
			implemented[f] = true
		}
		for _, e := range b.dep.Functions() {
			if implemented[e] {
				if cands[e] != nil {
					t.Errorf("node %v has candidates for its own function %v", x, e)
				}
				continue
			}
			got := cands[e]
			wantLen := k[e]
			if avail := len(b.dep.Providers(e)); wantLen > avail {
				wantLen = avail
			}
			if len(got) != wantLen {
				t.Fatalf("node %v candidates for %v = %v, want %d entries", x, e, got, wantLen)
			}
			// Verify closest-first ordering against raw distances.
			for i := 1; i < len(got); i++ {
				if b.ap.Dist(x, got[i-1]) > b.ap.Dist(x, got[i]) {
					t.Errorf("node %v candidates for %v not distance-ordered: %v", x, e, got)
				}
			}
			// Index 0 is the hot-potato target m_x^e.
			if want := b.ap.Closest(x, b.dep.Providers(e)); got[0] != want {
				t.Errorf("node %v m_x^%v = %v, want %v", x, e, got[0], want)
			}
		}
	}
}

func TestBuildNodesDistributesPolicies(t *testing.T) {
	b := newBed(t, 2, func(tbl *policy.Table) {
		// Policy 0: sources in subnet 1 only. Policy 1: wildcard source.
		d := policy.NewDescriptor()
		d.Src = topo.SubnetPrefix(1)
		tbl.Add(d, policy.ActionList{policy.FuncFW})
		d2 := policy.NewDescriptor()
		d2.DstPort = netaddr.SinglePort(80)
		tbl.Add(d2, policy.ActionList{policy.FuncIDS, policy.FuncTM})
	})
	ctl := controller.New(b.dep, b.ap, b.tbl, controller.Options{Strategy: enforce.HotPotato})
	_, nodes, _ := deploy(t, ctl, nil)
	if len(nodes) != len(b.dep.ProxyNodes)+len(b.dep.MBNodes) {
		t.Fatalf("built %d nodes", len(nodes))
	}

	p1, _ := b.dep.ProxyFor(1)
	if got := len(nodes[p1].Config().Policies); got != 2 {
		t.Errorf("proxy 1 has %d policies, want 2", got)
	}
	p2, _ := b.dep.ProxyFor(2)
	if got := len(nodes[p2].Config().Policies); got != 1 {
		t.Errorf("proxy 2 has %d policies, want 1 (wildcard only)", got)
	}
	// FW middleboxes carry only the FW policy; IDS boxes only the other.
	for _, id := range b.dep.Providers(policy.FuncFW) {
		ps := nodes[id].Config().Policies
		if len(ps) != 1 || !ps[0].Actions.Contains(policy.FuncFW) {
			t.Errorf("FW box %v has policies %v", id, ps)
		}
	}
	for _, id := range b.dep.Providers(policy.FuncWP) {
		if got := len(nodes[id].Config().Policies); got != 0 {
			t.Errorf("WP box has %d policies, want 0", got)
		}
	}
}

func TestSolveLBBalancesTwoFirewalls(t *testing.T) {
	// One policy (FW only), two sources, firewalls reachable by all:
	// the optimum splits the 300 packets evenly across... all three FWs
	// if k covers them; with k=3 the LP must reach max load 100.
	b := newBed(t, 3, func(tbl *policy.Table) {
		d := policy.NewDescriptor()
		d.DstPort = netaddr.SinglePort(80)
		tbl.Add(d, policy.ActionList{policy.FuncFW})
	})
	ctl := controller.New(b.dep, b.ap, b.tbl, controller.Options{
		Strategy: enforce.LoadBalanced,
		K:        map[policy.FuncType]int{policy.FuncFW: 3},
	})
	pid := b.tbl.All()[0].ID
	meas := controller.Measurements{
		{PolicyID: pid, SrcSubnet: 1, DstSubnet: 2}: 200,
		{PolicyID: pid, SrcSubnet: 3, DstSubnet: 4}: 100,
	}
	sol := solveLB(t, ctl, meas, false)
	if math.Abs(sol.Lambda-100) > 1e-6 {
		t.Errorf("lambda = %v, want 100", sol.Lambda)
	}
	var total float64
	for _, id := range b.dep.Providers(policy.FuncFW) {
		l := sol.ExpectedLoads[id]
		if l > 100+1e-6 {
			t.Errorf("FW %v expected load %v exceeds optimum", id, l)
		}
		total += l
	}
	if math.Abs(total-300) > 1e-6 {
		t.Errorf("total FW load = %v, want 300", total)
	}
	// Weights exist for both source proxies.
	for _, s := range []int{1, 3} {
		p, _ := b.dep.ProxyFor(s)
		w := sol.Weights[p][enforce.WeightKey{PolicyID: pid, Func: policy.FuncFW}]
		if len(w) != 3 {
			t.Fatalf("proxy %d weights = %v", s, w)
		}
		var sum float64
		for _, v := range w {
			if v < -1e-9 {
				t.Errorf("negative weight %v", v)
			}
			sum += v
		}
		wantVol := 200.0
		if s == 3 {
			wantVol = 100
		}
		if math.Abs(sum-wantVol) > 1e-6 {
			t.Errorf("proxy %d weight mass = %v, want %v", s, sum, wantVol)
		}
	}
}

// TestSolveLBSpreadsEachLoadedType: web traffic runs FW then IDS, so WP
// and TM stay idle, and only IDS (two boxes against three firewalls) is
// the bottleneck λ pins. Every proxy reaches all three firewalls and every
// firewall both IDS, so the λ-optimal face holds the point where each
// firewall carries a third of the traffic and each IDS half; the spread
// objective must reach it for the non-bottleneck type too. When spread
// variables existed for the idle types as well, their floors were
// unbounded, the spread stage failed and the min-λ vertex was kept.
func TestSolveLBSpreadsEachLoadedType(t *testing.T) {
	b := newBed(t, 61, webPolicy)
	ctl := controller.New(b.dep, b.ap, b.tbl, controller.Options{
		Strategy: enforce.LoadBalanced,
		K:        map[policy.FuncType]int{policy.FuncFW: 3, policy.FuncIDS: 2},
	})
	pid := b.tbl.All()[0].ID
	meas := controller.Measurements{
		{PolicyID: pid, SrcSubnet: 1, DstSubnet: 2}: 500,
		{PolicyID: pid, SrcSubnet: 2, DstSubnet: 3}: 300,
		{PolicyID: pid, SrcSubnet: 4, DstSubnet: 1}: 100,
	}
	sol := solveLB(t, ctl, meas, false)
	if math.Abs(sol.Lambda-450) > 1e-6 {
		t.Errorf("λ = %v, want 450 (900 packets over two IDS)", sol.Lambda)
	}
	for _, f := range []policy.FuncType{policy.FuncFW, policy.FuncIDS} {
		providers := b.dep.Providers(f)
		want := 900 / float64(len(providers))
		for _, x := range providers {
			if got := sol.ExpectedLoads[x]; math.Abs(got-want) > 1e-6*want {
				t.Errorf("%v %v carries %v, want an even %v", f, x, got, want)
			}
		}
	}
}

func TestSolveLBChainConservation(t *testing.T) {
	// FW -> IDS chain: total load on FWs == total on IDSes == demand.
	b := newBed(t, 4, webPolicy)
	ctl := controller.New(b.dep, b.ap, b.tbl, controller.Options{
		Strategy: enforce.LoadBalanced,
		K:        map[policy.FuncType]int{policy.FuncFW: 2, policy.FuncIDS: 2},
	})
	pid := b.tbl.All()[0].ID
	meas := controller.Measurements{
		{PolicyID: pid, SrcSubnet: 1, DstSubnet: 2}: 500,
		{PolicyID: pid, SrcSubnet: 2, DstSubnet: 3}: 300,
		{PolicyID: pid, SrcSubnet: 4, DstSubnet: 1}: 200,
	}
	sol := solveLB(t, ctl, meas, false)
	sum := func(f policy.FuncType) float64 {
		var s float64
		for _, id := range b.dep.Providers(f) {
			s += sol.ExpectedLoads[id]
		}
		return s
	}
	if math.Abs(sum(policy.FuncFW)-1000) > 1e-6 {
		t.Errorf("FW total = %v, want 1000", sum(policy.FuncFW))
	}
	if math.Abs(sum(policy.FuncIDS)-1000) > 1e-6 {
		t.Errorf("IDS total = %v, want 1000", sum(policy.FuncIDS))
	}
	// λ is the max expected load under unit capacities.
	var maxLoad float64
	for _, l := range sol.ExpectedLoads {
		if l > maxLoad {
			maxLoad = l
		}
	}
	if math.Abs(sol.Lambda-maxLoad) > 1e-4*(1+sol.Lambda) {
		t.Errorf("lambda %v != max load %v", sol.Lambda, maxLoad)
	}
	// Lower bound: IDS total / |IDS| (2 boxes).
	if sol.Lambda < 500-1e-6 {
		t.Errorf("lambda %v below information-theoretic bound 500", sol.Lambda)
	}
}

func TestSolveLBFineAgreesOnOptimum(t *testing.T) {
	// Aggregated Eq.(2) can only do as well or better than fine Eq.(1)
	// (it relaxes per-(s,d) conservation); both must respect the lower
	// bound, and on symmetric instances they coincide.
	b := newBed(t, 5, webPolicy)
	ctl := controller.New(b.dep, b.ap, b.tbl, controller.Options{
		Strategy: enforce.LoadBalanced,
		K:        map[policy.FuncType]int{policy.FuncFW: 3, policy.FuncIDS: 2},
	})
	pid := b.tbl.All()[0].ID
	meas := controller.Measurements{
		{PolicyID: pid, SrcSubnet: 1, DstSubnet: 2}: 400,
		{PolicyID: pid, SrcSubnet: 2, DstSubnet: 1}: 400,
		{PolicyID: pid, SrcSubnet: 3, DstSubnet: 4}: 400,
	}
	agg := solveLB(t, ctl, meas, false)
	fine := solveLB(t, ctl, meas, true)
	if agg.Lambda > fine.Lambda+1e-6 {
		t.Errorf("aggregated λ %v worse than fine λ %v", agg.Lambda, fine.Lambda)
	}
	lower := 1200.0 / 2 // IDS bottleneck: 2 boxes
	if fine.Lambda < lower-1e-6 || agg.Lambda < lower-1e-6 {
		t.Errorf("λ below bound %v: agg %v fine %v", lower, agg.Lambda, fine.Lambda)
	}
	if fine.Vars <= agg.Vars {
		t.Errorf("fine formulation should use more variables: %d vs %d", fine.Vars, agg.Vars)
	}
	// Fine weights carry subnet tags.
	p1, _ := b.dep.ProxyFor(1)
	if _, ok := fine.Weights[p1][enforce.WeightKey{PolicyID: pid, Func: policy.FuncFW, SrcSubnet: 1, DstSubnet: 2}]; !ok {
		t.Error("fine solution lacks per-(s,d) weight key")
	}
}

func TestRealizedLoadsTrackLPSolution(t *testing.T) {
	// Install the LP weights and push a large flow population through the
	// evaluator: realized max load must be close to λ and far below the
	// hot-potato max load.
	b := newBed(t, 6, webPolicy)
	rng := rand.New(rand.NewSource(66))

	var demands []enforce.FlowDemand
	for i := 0; i < 4000; i++ {
		src := 1 + rng.Intn(4)
		dst := 1 + rng.Intn(3)
		if dst >= src {
			dst++
		}
		demands = append(demands, enforce.FlowDemand{
			Tuple:   flow(src, dst, 80, uint16(rng.Intn(40000))),
			Packets: int64(1 + rng.Intn(20)),
		})
	}

	kk := map[policy.FuncType]int{policy.FuncFW: 3, policy.FuncIDS: 2}
	lbCtl := controller.New(b.dep, b.ap, b.tbl, controller.Options{Strategy: enforce.LoadBalanced, K: kk, HashSeed: 5})
	_, nodes, upd := deploy(t, lbCtl, controller.MeasurementsFromFlows(b.dep, b.tbl, demands))
	sol := upd.Solution
	lbReport, err := enforce.EvaluateFlows(nodes, b.dep, b.ap, demands)
	if err != nil {
		t.Fatal(err)
	}

	hpCtl := controller.New(b.dep, b.ap, b.tbl, controller.Options{Strategy: enforce.HotPotato, K: kk, HashSeed: 5})
	_, hpNodes, _ := deploy(t, hpCtl, nil)
	hpReport, err := enforce.EvaluateFlows(hpNodes, b.dep, b.ap, demands)
	if err != nil {
		t.Fatal(err)
	}

	for _, f := range []policy.FuncType{policy.FuncFW, policy.FuncIDS} {
		lbMax := float64(lbReport.MaxLoad(b.dep, f))
		hpMax := float64(hpReport.MaxLoad(b.dep, f))
		// HP can itself be near-optimal on a symmetric bed; LB must not
		// be worse beyond hash-sampling noise (~2%).
		if lbMax > hpMax*1.02+1 {
			t.Errorf("%v: LB max %v worse than HP max %v", f, lbMax, hpMax)
		}
		// Realized max within 10% of the LP's λ-implied bound for this
		// function (per-node salted hashing leaves only sampling noise).
		var lpMax float64
		for _, id := range b.dep.Providers(f) {
			if l := sol.ExpectedLoads[id]; l > lpMax {
				lpMax = l
			}
		}
		if lbMax > lpMax*1.1+1 {
			t.Errorf("%v: realized LB max %v far above LP expectation %v", f, lbMax, lpMax)
		}
	}
}

func TestInfeasibleCapRetriesUncapped(t *testing.T) {
	b := newBed(t, 7, webPolicy)
	ctl := controller.New(b.dep, b.ap, b.tbl, controller.Options{
		Strategy:  enforce.LoadBalanced,
		K:         map[policy.FuncType]int{policy.FuncFW: 2, policy.FuncIDS: 2},
		CapLambda: true, // with default capacity 1, any real demand overloads
	})
	pid := b.tbl.All()[0].ID
	meas := controller.Measurements{{PolicyID: pid, SrcSubnet: 1, DstSubnet: 2}: 1000}
	sol := solveLB(t, ctl, meas, false)
	if sol.Capped {
		t.Error("solution should report the cap was dropped")
	}
	if sol.Lambda <= 1 {
		t.Errorf("overloaded λ = %v, want > 1", sol.Lambda)
	}
}

func TestCapRespectedWhenFeasible(t *testing.T) {
	b := newBed(t, 8, webPolicy)
	caps := map[topo.NodeID]float64{}
	for _, id := range b.dep.MBNodes {
		caps[id] = 1e9
	}
	ctl := controller.New(b.dep, b.ap, b.tbl, controller.Options{
		Strategy:  enforce.LoadBalanced,
		K:         map[policy.FuncType]int{policy.FuncFW: 2, policy.FuncIDS: 2},
		CapLambda: true,
		Capacity:  caps,
	})
	pid := b.tbl.All()[0].ID
	meas := controller.Measurements{{PolicyID: pid, SrcSubnet: 1, DstSubnet: 2}: 1000}
	sol := solveLB(t, ctl, meas, false)
	if !sol.Capped {
		t.Error("cap should have been kept")
	}
	if sol.Lambda > 1 {
		t.Errorf("λ = %v with huge capacities", sol.Lambda)
	}
}

func TestMeasurementsFromFlowsMatchesProxyCounts(t *testing.T) {
	b := newBed(t, 9, webPolicy)
	demands := []enforce.FlowDemand{
		{Tuple: flow(1, 2, 80, 1), Packets: 5},
		{Tuple: flow(1, 3, 80, 2), Packets: 7},
		{Tuple: flow(2, 1, 9999, 3), Packets: 100}, // no policy match
	}
	meas := controller.MeasurementsFromFlows(b.dep, b.tbl, demands)
	pid := b.tbl.All()[0].ID
	if got := meas[enforce.MeasKey{PolicyID: pid, SrcSubnet: 1, DstSubnet: 2}]; got != 5 {
		t.Errorf("T(1,2) = %d", got)
	}
	if got := meas[enforce.MeasKey{PolicyID: pid, SrcSubnet: 1, DstSubnet: 3}]; got != 7 {
		t.Errorf("T(1,3) = %d", got)
	}
	var total int64
	for _, v := range meas {
		total += v
	}
	if total != 12 {
		t.Errorf("total measured = %d, want 12 (unmatched flow excluded)", total)
	}
}

func TestDefaultsMatchPaper(t *testing.T) {
	k := controller.DefaultK()
	if k[policy.FuncFW] != 4 || k[policy.FuncIDS] != 4 || k[policy.FuncWP] != 2 || k[policy.FuncTM] != 2 {
		t.Errorf("DefaultK = %v", k)
	}
	c := controller.DefaultCounts()
	if c[policy.FuncFW] != 7 || c[policy.FuncIDS] != 7 || c[policy.FuncWP] != 4 || c[policy.FuncTM] != 4 {
		t.Errorf("DefaultCounts = %v", c)
	}
}

func TestRandomDeploymentAndFullCampusSolve(t *testing.T) {
	// End-to-end on the paper's actual campus configuration with the
	// workload generator: LB must beat HP's max load on IDS.
	rng := rand.New(rand.NewSource(10))
	g := topo.Campus(topo.CampusConfig{WithProxies: true}, rng)
	dep, err := controller.RandomDeployment(g, rng)
	if err != nil {
		t.Fatal(err)
	}
	ap := route.NewAllPairs(g, route.RouterTransitOnly(g))

	tbl := policy.NewTable()
	cfg := workload.GenConfig{Subnets: dep.NumSubnets(), PoliciesPerClass: 4}
	cps := workload.GeneratePolicies(cfg, tbl, rng)
	flows := workload.GenerateFlows(cfg, cps, 200000, rng)
	demands := make([]enforce.FlowDemand, len(flows))
	for i, f := range flows {
		demands[i] = enforce.FlowDemand{Tuple: f.Tuple, Packets: int64(f.Packets)}
	}
	meas := controller.MeasurementsFromFlows(dep, tbl, demands)

	run := func(strategy enforce.Strategy) *enforce.LoadReport {
		ctl := controller.New(dep, ap, tbl, controller.Options{
			Strategy: strategy, K: controller.DefaultK(), HashSeed: 77,
		})
		_, nodes, _ := deploy(t, ctl, meas)
		report, err := enforce.EvaluateFlows(nodes, dep, ap, demands)
		if err != nil {
			t.Fatal(err)
		}
		return report
	}

	hp := run(enforce.HotPotato)
	lb := run(enforce.LoadBalanced)
	for _, f := range []policy.FuncType{policy.FuncFW, policy.FuncIDS} {
		if lb.MaxLoad(dep, f) > hp.MaxLoad(dep, f) {
			t.Errorf("%v: LB max %d > HP max %d", f, lb.MaxLoad(dep, f), hp.MaxLoad(dep, f))
		}
	}
	// The paper's headline: LB spreads IDS load to ≈ total/|IDS|.
	var idsTotal int64
	for _, l := range lb.LoadsOf(dep, policy.FuncIDS) {
		idsTotal += l
	}
	ideal := float64(idsTotal) / 7
	if got := float64(lb.MaxLoad(dep, policy.FuncIDS)); got > ideal*1.35 {
		t.Errorf("LB IDS max %v far above ideal %v", got, ideal)
	}
}
