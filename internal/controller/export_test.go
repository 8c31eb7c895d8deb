package controller_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/policy"
)

func TestExportConfigRoundTrip(t *testing.T) {
	b := newBed(t, 51, webPolicy)
	ctl := controller.New(b.dep, b.ap, b.tbl, controller.Options{
		Strategy: enforce.LoadBalanced,
		K:        map[policy.FuncType]int{policy.FuncFW: 2, policy.FuncIDS: 2},
	})
	pid := b.tbl.All()[0].ID
	_, _, upd := deploy(t, ctl, controller.Measurements{
		{PolicyID: pid, SrcSubnet: 1, DstSubnet: 2}: 100,
	})
	cfgs := ctl.NodeConfigs(upd.Plan)
	export := ctl.ExportConfig(cfgs)
	if export.Topology.Subnets != 4 || export.Topology.Middleboxes != 7 {
		t.Errorf("topology summary: %+v", export.Topology)
	}
	if len(export.Nodes) != len(cfgs) {
		t.Fatalf("exported %d nodes, want %d", len(export.Nodes), len(cfgs))
	}

	var buf bytes.Buffer
	if err := export.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back controller.Export
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if len(back.Nodes) != len(export.Nodes) {
		t.Fatal("round trip lost nodes")
	}

	// The proxy for subnet 1 carries the policy and (the plan was solved)
	// a weight vector over its FW candidates.
	var proxy1 *controller.ExportedNode
	for i := range back.Nodes {
		if back.Nodes[i].Kind == "proxy" && back.Nodes[i].Subnet == 1 {
			proxy1 = &back.Nodes[i]
		}
	}
	if proxy1 == nil {
		t.Fatal("proxy for subnet 1 missing from export")
	}
	if len(proxy1.Policies) != 1 || proxy1.Policies[0].Actions != "FW -> IDS" {
		t.Errorf("proxy policies: %+v", proxy1.Policies)
	}
	if len(proxy1.Candidates["FW"]) != 2 {
		t.Errorf("proxy FW candidates: %v", proxy1.Candidates)
	}
	if len(proxy1.Weights) == 0 {
		t.Error("proxy weights missing from a solved plan")
	} else {
		w := proxy1.Weights[0]
		if w.Func != "FW" || len(w.Weights) != 2 {
			t.Errorf("weight row: %+v", w)
		}
	}
	if proxy1.Strategy != "LB" {
		t.Errorf("strategy = %q", proxy1.Strategy)
	}
}

func TestExportMarksFailures(t *testing.T) {
	b := newBed(t, 52, webPolicy)
	ctl := controller.New(b.dep, b.ap, b.tbl, controller.Options{Strategy: enforce.HotPotato})
	_, nodes, _ := deploy(t, ctl, nil)
	dead := b.dep.MBNodes[2]
	if err := ctl.MarkFailed(dead, true); err != nil {
		t.Fatal(err)
	}
	export := ctl.ExportConfig(configsOf(nodes))
	if len(export.FailedMiddleboxes) != 1 || export.FailedMiddleboxes[0] != b.g.Node(dead).Name {
		t.Errorf("failed list: %v", export.FailedMiddleboxes)
	}
}
