package controller_test

import (
	"testing"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/policy"
	"sdme/internal/verify"
)

// TestNodeConfigsIsTheBuild: NodeConfigs is the one derivation of a
// node's configuration — a build from a plan installs exactly it, under
// hot potato, under solved LB weights and after a failure repair — and
// Pipeline.Apply with no update lands nodes that hold another plan on it.
func TestNodeConfigsIsTheBuild(t *testing.T) {
	b := newBed(t, 61, webPolicy)
	agree := func(name string, ctl *controller.Controller, plan *controller.Plan) {
		t.Helper()
		nodes, err := ctl.BuildNodesFromPlan(plan)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if viol := verify.CheckDeltaEquivalence(configsOf(nodes), ctl.NodeConfigs(plan)); len(viol) > 0 {
			t.Fatalf("%s: the build diverges from NodeConfigs (%d violations), first: %v", name, len(viol), viol[0])
		}
	}

	hp := controller.New(b.dep, b.ap, b.tbl, controller.Options{Strategy: enforce.HotPotato, K: controller.DefaultK()})
	_, _, upd := deploy(t, hp, nil)
	agree("hot potato", hp, upd.Plan)

	lb := controller.New(b.dep, b.ap, b.tbl, controller.Options{
		Strategy: enforce.LoadBalanced,
		K:        map[policy.FuncType]int{policy.FuncFW: 2, policy.FuncIDS: 2},
	})
	meas := controller.Measurements{{PolicyID: b.tbl.All()[0].ID, SrcSubnet: 1, DstSubnet: 2}: 100}
	pipe, nodes, upd := deploy(t, lb, meas)
	if len(upd.Plan.Weights) == 0 {
		t.Fatal("the LB plan carries no weights")
	}
	agree("solved LB weights", lb, upd.Plan)

	dead := b.dep.MBNodes[0]
	if err := lb.MarkFailed(dead, true); err != nil {
		t.Fatal(err)
	}
	pipe.NodeChanged(dead)
	if upd, err := pipe.Recompute(meas); err != nil {
		t.Fatal(err)
	} else {
		agree("after MarkFailed", lb, upd.Plan)
	}

	cfgs := lb.NodeConfigs(pipe.Plan())
	if len(verify.CheckDeltaEquivalence(configsOf(nodes), cfgs)) == 0 {
		t.Fatal("the failure repair changed no node's configuration")
	}
	if err := pipe.Apply(nodes, nil); err != nil {
		t.Fatal(err)
	}
	if viol := verify.CheckDeltaEquivalence(configsOf(nodes), cfgs); len(viol) > 0 {
		t.Fatalf("Apply(nodes, nil) left the nodes off NodeConfigs (%d violations), first: %v", len(viol), viol[0])
	}
}
