package mgmt_test

import (
	"errors"
	"net"
	"testing"
	"time"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/experiments"
	"sdme/internal/faultinject"
	"sdme/internal/live"
	"sdme/internal/metrics"
	"sdme/internal/mgmt"
	"sdme/internal/netaddr"
	"sdme/internal/topo"
	"sdme/internal/verify"
	"sdme/internal/workload"
)

// The acceptance bar for the incremental pipeline on the wire: a single
// policy edit on the campus topology must re-solve only the affected
// chain instances (scoped solve, dirty < total) and roll out as deltas
// costing no more than 10% of the bytes a full-config rollout costs —
// both asserted via the pipeline stats and the push-byte counters the
// server exports. The delta must land the fleet on exactly the
// configuration a from-scratch rebuild of the new plan produces.
func TestSinglePolicyEditDeltaRollout(t *testing.T) {
	bed, err := experiments.NewBed(experiments.Config{
		Topology:         "campus",
		Seed:             11,
		PoliciesPerClass: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctl := controller.New(bed.Dep, bed.AllPairs, bed.Table, controller.Options{
		Strategy: enforce.LoadBalanced,
		K:        bed.Cfg.K,
	})
	creg := metrics.NewRegistry(nil)
	ctl.SetMetrics(creg, nil)
	pipe := ctl.NewPipeline(controller.PipelineOptions{})

	demands := bed.GenerateDemands(6000)
	meas := controller.MeasurementsFromFlows(bed.Dep, bed.Table, demands)
	upd, err := pipe.Recompute(meas)
	if err != nil {
		t.Fatal(err)
	}
	// The pipeline path reports its LP to the registry.
	if v, it := creg.Gauge(controller.MetricLPVars).Value(), creg.Gauge(controller.MetricLPIters).Value(); v <= 0 || it <= 0 {
		t.Errorf("after a solved Recompute: %s = %v, %s = %v, want both > 0",
			controller.MetricLPVars, v, controller.MetricLPIters, it)
	}
	nodes, err := ctl.BuildNodesFromPlan(upd.Plan)
	if err != nil {
		t.Fatal(err)
	}

	// Live substrate: every node becomes a device with an agent, and the
	// ONLY configuration channel is the management wire.
	rt := live.NewRuntime()
	defer rt.Close()
	server, err := mgmt.NewServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	reg := metrics.NewRegistry(nil)
	server.SetMetrics(reg)

	devices := make(map[topo.NodeID]*live.Device, len(nodes))
	var ids []topo.NodeID
	for id, n := range nodes {
		dev, err := rt.AddDevice(n)
		if err != nil {
			t.Fatal(err)
		}
		devices[id] = dev
		agent, err := mgmt.NewAgent(dev, server.Addr(), 0)
		if err != nil {
			t.Fatal(err)
		}
		defer agent.Close()
		ids = append(ids, id)
	}
	if !server.WaitConnected(5*time.Second, ids...) {
		t.Fatalf("agents did not connect: %v of %v", server.Connected(), ids)
	}

	pol := mgmt.RetryPolicy{Attempts: 2, PerAttempt: 3 * time.Second}
	plans := make(map[topo.NodeID]mgmt.ConfigDTO, len(nodes))
	for id, n := range nodes {
		plans[id] = mgmt.ConfigToDTO(0, n.Config())
	}
	// The first Recompute's deltas are the diff against the empty plan;
	// the server holds no base, so they go out as the full fallback.
	if _, err := pipe.Rollout(server, upd.Deltas, plans, pol); err != nil {
		t.Fatalf("full rollout: %v", err)
	}
	fullBytes := reg.Counter(mgmt.MetricPushBytesFull).Value()
	if fullBytes == 0 {
		t.Fatal("full rollout counted no bytes")
	}

	// The single edit: a one-to-one policy (one source subnet, so only
	// one proxy and its chain's providers carry it) widens its service
	// port range. Its flows keep matching — the chain instance survives
	// with a new rule hash, which is exactly what must go dirty and
	// nothing else.
	var cp workload.ClassedPolicy
	for _, c := range bed.Classed {
		if c.Class == workload.OneToOne {
			cp = c
			break
		}
	}
	p := cp.Policy
	if p == nil {
		t.Fatal("bed generated no one-to-one policy")
	}
	d := p.Desc
	d.DstPort = netaddr.PortRange{Lo: cp.Service, Hi: cp.Service + 1}
	bed.Table.Update(p.ID, d, p.Actions)
	pipe.PolicyChanged(p.ID)

	meas = controller.MeasurementsFromFlows(bed.Dep, bed.Table, demands)
	upd2, err := pipe.Recompute(meas)
	if err != nil {
		t.Fatal(err)
	}
	if !upd2.Stats.Solved || upd2.Stats.FullSolve {
		t.Fatalf("single edit did not take the scoped-solve path: %+v", upd2.Stats)
	}
	if upd2.Stats.Dirty == 0 || upd2.Stats.Dirty >= upd2.Stats.Instances {
		t.Fatalf("dirty set = %d of %d instances; want a proper subset",
			upd2.Stats.Dirty, upd2.Stats.Instances)
	}
	if got := creg.Gauge(controller.MetricPlanDeltaSize).Value(); got != float64(upd2.Stats.Delta.Total()) {
		t.Errorf("%s = %v, want %d", controller.MetricPlanDeltaSize, got, upd2.Stats.Delta.Total())
	}
	if creg.Counter(controller.MetricPlanChurn).Value() == 0 {
		t.Errorf("%s did not count the edit's delta entries", controller.MetricPlanChurn)
	}
	if len(upd2.Deltas) == 0 {
		t.Fatal("edit produced no per-node deltas")
	}
	if len(upd2.Deltas) >= len(nodes) {
		t.Errorf("edit produced deltas for all %d nodes; want only the affected subset", len(nodes))
	}

	if _, err := pipe.Rollout(server, upd2.Deltas, nil, pol); err != nil {
		t.Fatalf("delta rollout: %v", err)
	}
	if got := reg.Counter(mgmt.MetricDeltaFallbacks).Value(); got != 0 {
		t.Errorf("delta rollout fell back to full pushes %d times", got)
	}
	deltaBytes := reg.Counter(mgmt.MetricPushBytesDelta).Value()
	if deltaBytes == 0 {
		t.Fatal("delta rollout counted no bytes")
	}
	if deltaBytes*10 > fullBytes {
		t.Errorf("delta rollout cost %d bytes, more than 10%% of the %d-byte full rollout",
			deltaBytes, fullBytes)
	}
	t.Logf("full rollout %d bytes, delta rollout %d bytes (%.1f%%), %d/%d instances re-solved, %d/%d nodes touched",
		fullBytes, deltaBytes, 100*float64(deltaBytes)/float64(fullBytes),
		upd2.Stats.Dirty, upd2.Stats.Instances, len(upd2.Deltas), len(nodes))

	// The fleet must now hold exactly the new plan's configuration.
	rebuilt, err := ctl.BuildNodesFromPlan(upd2.Plan)
	if err != nil {
		t.Fatal(err)
	}
	applied := make(map[topo.NodeID]enforce.Config, len(devices))
	for id, dev := range devices {
		id := id
		dev.Do(func(n *enforce.Node) { applied[id] = n.Config() })
	}
	fullCfg := make(map[topo.NodeID]enforce.Config, len(rebuilt))
	for id, n := range rebuilt {
		fullCfg[id] = n.Config()
	}
	if viol := verify.CheckDeltaEquivalence(applied, fullCfg); len(viol) > 0 {
		t.Fatalf("fleet diverges from the rebuilt plan after delta rollout (%d violations), first: %v",
			len(viol), viol[0])
	}
}

// A refused rollout must not advance the pipeline's diff base. Recompute
// has already replaced the pipeline's plan when the push starts; if the
// fleet then refuses it (here: one prepare never acked, so the 2PC rolls
// back), every later delta would be diffed against a plan no node holds
// and the fleet would miss the refused edit for good. Rollout rolls the
// pipeline back instead, so after three more edits the fleet is exactly a
// from-scratch build of the latest plan.
func TestRefusedRolloutKeepsDiffBase(t *testing.T) {
	bed, err := experiments.NewBed(experiments.Config{Topology: "campus", Seed: 13, PoliciesPerClass: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctl := controller.New(bed.Dep, bed.AllPairs, bed.Table, controller.Options{
		Strategy: enforce.LoadBalanced,
		K:        bed.Cfg.K,
	})
	pipe := ctl.NewPipeline(controller.PipelineOptions{})
	demands := bed.GenerateDemands(4000)
	recompute := func() *controller.PlanUpdate {
		t.Helper()
		upd, err := pipe.Recompute(controller.MeasurementsFromFlows(bed.Dep, bed.Table, demands))
		if err != nil {
			t.Fatal(err)
		}
		return upd
	}
	upd := recompute()
	nodes, err := ctl.BuildNodesFromPlan(upd.Plan)
	if err != nil {
		t.Fatal(err)
	}

	rt := live.NewRuntime()
	defer rt.Close()
	server, err := mgmt.NewServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	devices := make(map[topo.NodeID]*live.Device, len(nodes))
	agents := make(map[topo.NodeID]*mgmt.Agent, len(nodes))
	taps := make(map[topo.NodeID]*faultinject.ConnTap, len(nodes))
	fallback := make(map[topo.NodeID]mgmt.ConfigDTO, len(nodes))
	var ids []topo.NodeID
	for id, n := range nodes {
		fallback[id] = mgmt.ConfigToDTO(0, n.Config())
		dev, err := rt.AddDevice(n)
		if err != nil {
			t.Fatal(err)
		}
		devices[id] = dev
		tap := &faultinject.ConnTap{}
		agent, err := mgmt.NewAgentWith(dev, server.Addr(), mgmt.AgentOptions{
			Dial: tap.Dial(func() (net.Conn, error) { return net.Dial("tcp", server.Addr()) }),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer agent.Close()
		agents[id], taps[id] = agent, tap
		ids = append(ids, id)
	}
	if !server.WaitConnected(5*time.Second, ids...) {
		t.Fatalf("agents did not connect: %v of %v", server.Connected(), ids)
	}
	pol := mgmt.RetryPolicy{Attempts: 1, PerAttempt: 3 * time.Second}
	if _, err := pipe.Rollout(server, upd.Deltas, fallback, pol); err != nil {
		t.Fatalf("initial rollout: %v", err)
	}
	base := pipe.Plan()

	// edit widens (or re-narrows) one policy's service port range.
	policies := bed.Table.All()
	edit := func(i int) *controller.PlanUpdate {
		t.Helper()
		p := policies[i%len(policies)]
		d := p.Desc
		d.DstPort.Hi = d.DstPort.Lo + uint16(i+1)
		bed.Table.Update(p.ID, d, p.Actions)
		pipe.PolicyChanged(p.ID)
		upd := recompute()
		if len(upd.Deltas) == 0 {
			t.Fatalf("edit %d produced no deltas", i)
		}
		return upd
	}

	// The refused edit: one touched node swallows its prepare ack.
	upd = edit(0)
	var victim topo.NodeID
	for id := range upd.Deltas {
		victim = id
		break
	}
	taps[victim].DropFrames(1)
	_, err = pipe.Rollout(server, upd.Deltas, nil, mgmt.RetryPolicy{Attempts: 1, PerAttempt: 300 * time.Millisecond})
	if err == nil || errors.Is(err, mgmt.ErrCommitStraggler) {
		t.Fatalf("rollout with a lost prepare ack: err = %v, want a rolled-back prepare failure", err)
	}
	if pipe.Plan() != base {
		t.Fatal("the refused plan is still the pipeline's diff base")
	}
	for id, a := range agents {
		if a.StagedEpoch() != 0 || a.LastEpoch() != agents[victim].LastEpoch() {
			t.Errorf("node %v moved (epoch %d, staged %d) although the rollout rolled back", id, a.LastEpoch(), a.StagedEpoch())
		}
	}

	// Three more edits roll out cleanly, carrying the refused one along.
	for i := 1; i <= 3; i++ {
		if _, err := pipe.Rollout(server, edit(i).Deltas, nil, pol); err != nil {
			t.Fatalf("edit %d rollout: %v", i, err)
		}
	}

	rebuilt, err := ctl.BuildNodesFromPlan(pipe.Plan())
	if err != nil {
		t.Fatal(err)
	}
	applied := make(map[topo.NodeID]enforce.Config, len(devices))
	for id, dev := range devices {
		id := id
		dev.Do(func(n *enforce.Node) { applied[id] = n.Config() })
	}
	want := make(map[topo.NodeID]enforce.Config, len(rebuilt))
	for id, n := range rebuilt {
		want[id] = n.Config()
	}
	if viol := verify.CheckDeltaEquivalence(applied, want); len(viol) > 0 {
		t.Fatalf("fleet diverges from a from-scratch build after a refused rollout (%d violations), first: %v",
			len(viol), viol[0])
	}
	if !server.Converged(ids...) {
		t.Error("fleet not converged on the latest epoch")
	}
}
