package controller_test

import (
	"math/rand"
	"strings"
	"testing"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/policy"
	"sdme/internal/route"
	"sdme/internal/topo"
	"sdme/internal/workload"
)

func TestAuditCleanDeployment(t *testing.T) {
	b := newBed(t, 61, webPolicy)
	ctl := controller.New(b.dep, b.ap, b.tbl, controller.Options{
		Strategy: enforce.LoadBalanced,
		K:        map[policy.FuncType]int{policy.FuncFW: 2, policy.FuncIDS: 2},
	})
	_, nodes, _ := deploy(t, ctl, nil)
	if vs := ctl.Audit(nodes); len(vs) != 0 {
		t.Errorf("clean deployment has violations: %v", vs)
	}
}

func TestAuditFullCampusWorkloadPolicies(t *testing.T) {
	// The paper's whole evaluation bed must audit clean: 30 generated
	// policies × 10 subnets, all three strategies.
	rng := rand.New(rand.NewSource(20))
	g := topo.Campus(topo.CampusConfig{WithProxies: true}, rng)
	dep, err := controller.RandomDeployment(g, rng)
	if err != nil {
		t.Fatal(err)
	}
	tbl := policy.NewTable()
	workload.GeneratePolicies(workload.GenConfig{Subnets: dep.NumSubnets(), PoliciesPerClass: 10}, tbl, rng)
	ap := route.NewAllPairs(g, route.RouterTransitOnly(g))

	for _, strategy := range []enforce.Strategy{enforce.HotPotato, enforce.Random, enforce.LoadBalanced} {
		ctl := controller.New(dep, ap, tbl, controller.Options{Strategy: strategy, K: controller.DefaultK()})
		_, nodes, _ := deploy(t, ctl, nil)
		if vs := ctl.Audit(nodes); len(vs) != 0 {
			t.Errorf("%v: %d violations, first: %v", strategy, len(vs), vs[0])
		}
	}
}

func TestAuditDetectsSabotagedCandidates(t *testing.T) {
	// Corrupt one proxy's candidate set to point FW traffic at an IDS
	// box; the audit must catch the wrong-function step.
	b := newBed(t, 62, webPolicy)
	ctl := controller.New(b.dep, b.ap, b.tbl, controller.Options{Strategy: enforce.HotPotato})
	_, nodes, _ := deploy(t, ctl, nil)
	victim, _ := b.dep.ProxyFor(1)
	if err := nodes[victim].ApplyDelta(enforce.ConfigDelta{SetCandidates: map[policy.FuncType][]topo.NodeID{
		policy.FuncFW: {b.dep.Providers(policy.FuncIDS)[0]},
	}}); err != nil {
		t.Fatal(err)
	}

	vs := ctl.Audit(nodes)
	if len(vs) == 0 {
		t.Fatal("sabotaged candidates not detected")
	}
	// The misdirected packet either lands on a box that cannot serve the
	// function ("does not implement") or strands there because the IDS
	// box has no candidates for its own function ("trace failed"). Either
	// way the audit must localize it to subnet 1.
	found := false
	for _, v := range vs {
		if v.SrcSubnet == 1 &&
			(strings.Contains(v.Reason, "does not implement") || strings.Contains(v.Reason, "trace failed")) {
			found = true
		}
	}
	if !found {
		t.Errorf("violations do not localize the sabotage: %v", vs)
	}
}

func TestAuditDetectsStaleFailure(t *testing.T) {
	// Mark a middlebox failed WITHOUT reassigning: nodes still route to
	// it; the audit must flag the stale state.
	b := newBed(t, 63, webPolicy)
	ctl := controller.New(b.dep, b.ap, b.tbl, controller.Options{
		Strategy: enforce.HotPotato,
		K:        map[policy.FuncType]int{policy.FuncFW: 2, policy.FuncIDS: 2},
	})
	pipe, nodes, _ := deploy(t, ctl, nil)
	// Find a firewall that actually serves some subnet under HP.
	demands := []enforce.FlowDemand{
		{Tuple: flow(1, 2, 80, 1), Packets: 1},
		{Tuple: flow(2, 3, 80, 2), Packets: 1},
		{Tuple: flow(3, 4, 80, 3), Packets: 1},
		{Tuple: flow(4, 1, 80, 4), Packets: 1},
	}
	report, err := enforce.EvaluateFlows(nodes, b.dep, b.ap, demands)
	if err != nil {
		t.Fatal(err)
	}
	var used topo.NodeID = topo.InvalidNode
	for _, fw := range b.dep.Providers(policy.FuncFW) {
		if report.Loads[fw] > 0 {
			used = fw
			break
		}
	}
	if used == topo.InvalidNode {
		t.Fatal("no used firewall")
	}
	if err := ctl.MarkFailed(used, true); err != nil {
		t.Fatal(err)
	}
	vs := ctl.Audit(nodes)
	found := false
	for _, v := range vs {
		if strings.Contains(v.Reason, "failed middlebox") {
			found = true
		}
	}
	if !found {
		t.Errorf("stale failure not flagged: %v", vs)
	}
	// After the repair turn of the loop the audit is clean again.
	pipe.NodeChanged(used)
	recompute(t, pipe, nodes, nil)
	if vs := ctl.Audit(nodes); len(vs) != 0 {
		t.Errorf("violations after repair: %v", vs)
	}
}
