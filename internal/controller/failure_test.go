package controller_test

import (
	"errors"
	"testing"

	"sdme/internal/netaddr"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/policy"
)

func TestMarkFailedValidation(t *testing.T) {
	b := newBed(t, 31, webPolicy)
	ctl := controller.New(b.dep, b.ap, b.tbl, controller.Options{Strategy: enforce.HotPotato})
	if err := ctl.MarkFailed(b.dep.ProxyNodes[0], true); err == nil {
		t.Error("marking a proxy failed should error")
	}
	mb := b.dep.MBNodes[0]
	if err := ctl.MarkFailed(mb, true); err != nil {
		t.Fatal(err)
	}
	if got := ctl.Failed(); len(got) != 1 || got[0] != mb {
		t.Errorf("Failed() = %v", got)
	}
	if err := ctl.MarkFailed(mb, false); err != nil {
		t.Fatal(err)
	}
	if len(ctl.Failed()) != 0 {
		t.Error("recovery not recorded")
	}
}

func TestReassignAfterFailureShiftsTraffic(t *testing.T) {
	b := newBed(t, 32, webPolicy)
	ctl := controller.New(b.dep, b.ap, b.tbl, controller.Options{
		Strategy: enforce.HotPotato,
		K:        map[policy.FuncType]int{policy.FuncFW: 2, policy.FuncIDS: 2},
	})
	pipe, nodes, _ := deploy(t, ctl, nil)
	demands := []enforce.FlowDemand{
		{Tuple: flow(1, 2, 80, 1), Packets: 100},
		{Tuple: flow(2, 3, 80, 2), Packets: 100},
		{Tuple: flow(3, 4, 80, 3), Packets: 100},
	}
	before, err := enforce.EvaluateFlows(nodes, b.dep, b.ap, demands)
	if err != nil {
		t.Fatal(err)
	}
	// Find the busiest firewall and fail it.
	var hot enforce.NodeLoad
	for _, nl := range before.SortedLoads() {
		for _, fw := range b.dep.Providers(policy.FuncFW) {
			if nl.Node == fw {
				hot = nl
				break
			}
		}
		if hot.Node != 0 {
			break
		}
	}
	if hot.Load == 0 {
		t.Fatal("no loaded firewall found")
	}
	if err := ctl.MarkFailed(hot.Node, true); err != nil {
		t.Fatal(err)
	}
	pipe.NodeChanged(hot.Node)
	recompute(t, pipe, nodes, nil)
	after, err := enforce.EvaluateFlows(nodes, b.dep, b.ap, demands)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.Loads[hot.Node]; got != 0 {
		t.Errorf("failed middlebox still receives %d packets", got)
	}
	// All traffic still fully enforced: FW total unchanged.
	var fwTotal int64
	for _, l := range after.LoadsOf(b.dep, policy.FuncFW) {
		fwTotal += l
	}
	if fwTotal != 300 {
		t.Errorf("FW total after failure = %d, want 300", fwTotal)
	}
	if after.Dropped != 0 {
		t.Errorf("flows dropped after the repair: %d", after.Dropped)
	}

	// Recovery restores the original assignment.
	if err := ctl.MarkFailed(hot.Node, false); err != nil {
		t.Fatal(err)
	}
	pipe.NodeChanged(hot.Node)
	recompute(t, pipe, nodes, nil)
	restored, err := enforce.EvaluateFlows(nodes, b.dep, b.ap, demands)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Loads[hot.Node] != hot.Load {
		t.Errorf("restored load = %d, want %d", restored.Loads[hot.Node], hot.Load)
	}
}

func TestReassignFailsWhenFunctionUncovered(t *testing.T) {
	b := newBed(t, 33, webPolicy)
	ctl := controller.New(b.dep, b.ap, b.tbl, controller.Options{Strategy: enforce.HotPotato})
	pipe, _, _ := deploy(t, ctl, nil)
	// Fail every IDS.
	for _, id := range b.dep.Providers(policy.FuncIDS) {
		if err := ctl.MarkFailed(id, true); err != nil {
			t.Fatal(err)
		}
		pipe.NodeChanged(id)
	}
	_, err := pipe.Recompute(nil)
	if err == nil {
		t.Fatal("Recompute must fail when a function loses all providers")
	}
	// The failure is typed: recovery loops branch on the sentinel and read
	// the starved function off the concrete error.
	if !errors.Is(err, controller.ErrNoLiveProvider) {
		t.Errorf("err = %v, want errors.Is ErrNoLiveProvider", err)
	}
	var nlp *controller.NoLiveProviderError
	if !errors.As(err, &nlp) {
		t.Fatalf("err = %T, want *NoLiveProviderError", err)
	}
	if nlp.Func != policy.FuncIDS {
		t.Errorf("starved function = %v, want %v", nlp.Func, policy.FuncIDS)
	}
}

func TestLBAfterFailure(t *testing.T) {
	// After a failure the repair turn re-solves over the surviving boxes:
	// a valid balanced solution that avoids the dead box.
	b := newBed(t, 34, webPolicy)
	ctl := controller.New(b.dep, b.ap, b.tbl, controller.Options{
		Strategy: enforce.LoadBalanced,
		K:        map[policy.FuncType]int{policy.FuncFW: 3, policy.FuncIDS: 2},
	})
	pid := b.tbl.All()[0].ID
	meas := controller.Measurements{
		{PolicyID: pid, SrcSubnet: 1, DstSubnet: 2}: 600,
		{PolicyID: pid, SrcSubnet: 3, DstSubnet: 4}: 600,
	}
	pipe, nodes, _ := deploy(t, ctl, meas)
	dead := b.dep.Providers(policy.FuncFW)[0]
	if err := ctl.MarkFailed(dead, true); err != nil {
		t.Fatal(err)
	}
	pipe.NodeChanged(dead)
	sol := recompute(t, pipe, nodes, meas).Solution
	if sol == nil {
		t.Fatal("the repair ran no LP")
	}
	if sol.ExpectedLoads[dead] != 0 {
		t.Errorf("LP routed %v packets through the failed box", sol.ExpectedLoads[dead])
	}
	// Two surviving FWs for 1200 packets: optimum λ = 600.
	if sol.Lambda < 600-1e-6 {
		t.Errorf("λ = %v below feasible bound", sol.Lambda)
	}
	demands := []enforce.FlowDemand{
		{Tuple: flow(1, 2, 80, 1), Packets: 600},
		{Tuple: flow(3, 4, 80, 2), Packets: 600},
	}
	report, err := enforce.EvaluateFlows(nodes, b.dep, b.ap, demands)
	if err != nil {
		t.Fatal(err)
	}
	if report.Loads[dead] != 0 {
		t.Errorf("dataplane still uses the failed box: %d", report.Loads[dead])
	}
}

func TestFineWeightsDriveDataplane(t *testing.T) {
	// Eq. (1) weights are keyed per (source, destination) pair; the
	// dataplane must prefer them over aggregated keys and realize the
	// per-pair splits.
	b := newBed(t, 35, webPolicy)
	ctl := controller.New(b.dep, b.ap, b.tbl, controller.Options{
		Strategy: enforce.LoadBalanced,
		K:        map[policy.FuncType]int{policy.FuncFW: 3, policy.FuncIDS: 2},
		HashSeed: 3,
	})
	var demands []enforce.FlowDemand
	for i := 0; i < 3000; i++ {
		src := 1 + i%4
		dst := 1 + (i+1)%4
		if dst == src {
			dst = 1 + (dst % 4)
		}
		demands = append(demands, enforce.FlowDemand{
			Tuple:   flow(src, dst, 80, uint16(i)),
			Packets: int64(1 + i%7),
		})
	}
	meas := controller.MeasurementsFromFlows(b.dep, b.tbl, demands)
	upd, err := ctl.NewPipeline(controller.PipelineOptions{Fine: true}).Recompute(meas)
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := ctl.BuildNodesFromPlan(upd.Plan)
	if err != nil {
		t.Fatal(err)
	}
	fine := upd.Solution
	report, err := enforce.EvaluateFlows(nodes, b.dep, b.ap, demands)
	if err != nil {
		t.Fatal(err)
	}
	// Realized max IDS load within 10% of the fine LP's expectation.
	var lpMax float64
	for _, id := range b.dep.Providers(policy.FuncIDS) {
		if l := fine.ExpectedLoads[id]; l > lpMax {
			lpMax = l
		}
	}
	if got := float64(report.MaxLoad(b.dep, policy.FuncIDS)); got > lpMax*1.1+1 {
		t.Errorf("fine-weight realized IDS max %v above LP expectation %v", got, lpMax)
	}
}

func TestSolveLBErrorsWithoutProviders(t *testing.T) {
	// A policy whose chain includes a function no middlebox offers must
	// surface a clear error from the LP builder, not a bogus solution.
	b := newBed(t, 36, func(tbl *policy.Table) {
		d := policy.NewDescriptor()
		d.DstPort = netaddr.SinglePort(80)
		tbl.Add(d, policy.ActionList{policy.FuncFW, policy.FuncType(88)})
	})
	ctl := controller.New(b.dep, b.ap, b.tbl, controller.Options{Strategy: enforce.LoadBalanced})
	pid := b.tbl.All()[0].ID
	meas := controller.Measurements{{PolicyID: pid, SrcSubnet: 1, DstSubnet: 2}: 10}
	for _, fine := range []bool{false, true} {
		if _, err := ctl.NewPipeline(controller.PipelineOptions{Fine: fine}).Recompute(meas); err == nil {
			t.Errorf("Recompute (fine=%v) should fail when a chain function has no provider", fine)
		}
	}
}

func TestSolveLBUnknownPolicyMeasurement(t *testing.T) {
	b := newBed(t, 37, webPolicy)
	ctl := controller.New(b.dep, b.ap, b.tbl, controller.Options{Strategy: enforce.LoadBalanced})
	meas := controller.Measurements{{PolicyID: 9999, SrcSubnet: 1, DstSubnet: 2}: 10}
	if _, err := ctl.NewPipeline(controller.PipelineOptions{}).Recompute(meas); err == nil {
		t.Error("unknown policy ID in measurements should fail")
	}
}

func TestSolveLBEmptyMeasurements(t *testing.T) {
	// No traffic measured: there is nothing to solve (λ = 0) and the plan
	// carries no weights; the dataplane then falls back to uniform splits.
	b := newBed(t, 38, webPolicy)
	ctl := controller.New(b.dep, b.ap, b.tbl, controller.Options{Strategy: enforce.LoadBalanced})
	upd, err := ctl.NewPipeline(controller.PipelineOptions{}).Recompute(controller.Measurements{})
	if err != nil {
		t.Fatal(err)
	}
	if upd.Plan.Lambda != 0 || len(upd.Plan.Weights) != 0 || upd.Stats.Solved {
		t.Errorf("empty measurements: λ = %v, %d weighted nodes, solved = %v",
			upd.Plan.Lambda, len(upd.Plan.Weights), upd.Stats.Solved)
	}
}
