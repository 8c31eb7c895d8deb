package sim_test

import (
	"math/rand"
	"testing"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/policy"
	"sdme/internal/topo"
)

// TestClosedLoopRebalancing exercises the paper's §III-C control loop end
// to end inside the simulator: proxies measure traffic, the controller
// collects the measurements, solves the LB program, and pushes new
// weights to running nodes — all without disturbing in-flight soft state.
func TestClosedLoopRebalancing(t *testing.T) {
	// Enough flows that hash sampling stays well inside the 15 % asserted
	// below, at whichever λ-optimal vertex the LP returns: at 400 flows
	// every hash seed from 1 to 40 lands within 9 % of an even IDS split,
	// at 50 flows a fifth to a quarter of them miss 15 %, depending on the
	// vertex.
	const closedLoopFlows = 400
	opts := controller.Options{Strategy: enforce.LoadBalanced, HashSeed: 77}
	b := newSimBed(t, opts)
	rng := rand.New(rand.NewSource(21))

	mkFlows := func(n int) []enforce.FlowDemand {
		var out []enforce.FlowDemand
		for i := 0; i < n; i++ {
			src := 1 + rng.Intn(3)
			dst := 1 + rng.Intn(2)
			if dst >= src {
				dst++
			}
			out = append(out, enforce.FlowDemand{
				Tuple:   flowTuple(src, dst, 80, uint16(rng.Intn(30000))),
				Packets: int64(2 + rng.Intn(8)),
			})
		}
		return out
	}

	// Epoch 1: no weights installed yet (uniform fallback). Run traffic;
	// the proxies measure it.
	for i, d := range mkFlows(closedLoopFlows) {
		if err := b.nw.InjectFlow(d.Tuple, int(d.Packets), 256, int64(i)*40, 20); err != nil {
			t.Fatal(err)
		}
	}
	b.nw.Run(0)

	// Controller collects the proxies' measurements — the real §III-C
	// reporting path, not a flows-derived shortcut.
	meas := controller.Collect(b.nodes)
	if len(meas) == 0 {
		t.Fatal("proxies measured nothing")
	}
	var measured int64
	for _, v := range meas {
		measured += v
	}
	if measured != b.nw.Stats().PacketsInjected {
		t.Fatalf("measured %d packets, injected %d", measured, b.nw.Stats().PacketsInjected)
	}

	b.recompute(t, meas)
	for _, n := range b.nodes {
		n.ResetMeasurements()
	}

	// Epoch 2: same traffic pattern under the solved weights. Realized
	// IDS spread must be tight around the LP's expectation.
	rng = rand.New(rand.NewSource(21)) // regenerate the same population
	for i, d := range mkFlows(closedLoopFlows) {
		if err := b.nw.InjectFlow(d.Tuple, int(d.Packets), 256, int64(i)*40, 20); err != nil {
			t.Fatal(err)
		}
	}
	before := b.nw.MiddleboxLoads()
	b.nw.Run(0)
	after := b.nw.MiddleboxLoads()

	var maxIDS, totalIDS int64
	for _, id := range b.dep.Providers(policy.FuncIDS) {
		l := after[id] - before[id]
		totalIDS += l
		if l > maxIDS {
			maxIDS = l
		}
	}
	if totalIDS == 0 {
		t.Fatal("no IDS traffic in epoch 2")
	}
	// Two IDS boxes: perfect balance is totalIDS/2; allow 15% sampling
	// slack.
	if float64(maxIDS) > float64(totalIDS)/2*1.15 {
		t.Errorf("epoch-2 IDS max %d of %d; rebalancing ineffective", maxIDS, totalIDS)
	}
	if b.nw.Stats().EnforcementErrors != 0 {
		t.Errorf("enforcement errors during rebalancing: %+v", b.nw.Stats())
	}
}

// TestMiddleboxFailureRepairInSim fails a firewall mid-run; the
// controller reassigns candidates on the live nodes and traffic keeps
// flowing through the surviving box.
func TestMiddleboxFailureRepairInSim(t *testing.T) {
	b := newSimBed(t, controller.Options{Strategy: enforce.HotPotato})

	inject := func(base int64, n int) {
		for i := 0; i < n; i++ {
			ft := flowTuple(1+i%3, 1+(i+1)%3, 80, uint16(7000+i))
			if ft.Src == ft.Dst {
				continue
			}
			if err := b.nw.InjectFlow(ft, 3, 256, base+int64(i)*30, 15); err != nil {
				t.Fatal(err)
			}
		}
	}
	inject(0, 20)
	b.nw.Run(0)

	// Fail the busiest firewall.
	var dead topo.NodeID = topo.InvalidNode
	var deadLoad int64 = -1
	for _, id := range b.dep.Providers(policy.FuncFW) {
		if l := b.nodes[id].Counters.Load; l > deadLoad {
			dead, deadLoad = id, l
		}
	}
	if deadLoad <= 0 {
		t.Fatal("no firewall load before failure")
	}
	if err := b.ctl.MarkFailed(dead, true); err != nil {
		t.Fatal(err)
	}
	b.pipe.NodeChanged(dead)
	b.recompute(t, nil)

	deliveredBefore := b.nw.Stats().Delivered
	loadAtFailure := b.nodes[dead].Counters.Load
	inject(b.nw.Engine.Now()+1000, 20)
	b.nw.Run(0)

	if got := b.nodes[dead].Counters.Load; got != loadAtFailure {
		t.Errorf("failed firewall processed %d more packets", got-loadAtFailure)
	}
	if b.nw.Stats().Delivered <= deliveredBefore {
		t.Error("no deliveries after repair")
	}
	if b.nw.Stats().EnforcementErrors != 0 {
		t.Errorf("errors after repair: %+v", b.nw.Stats())
	}
}

// TestSoakEverythingAtOnce drives the full machinery in one long
// simulation: label switching on, periodic soft-state sweeps, a
// mid-run rebalance from live measurements, and a middlebox
// failure + repair — then checks conservation: every injected packet is
// delivered, served locally, or policy-dropped; none vanish.
func TestSoakEverythingAtOnce(t *testing.T) {
	b := newSimBed(t, controller.Options{
		Strategy:       enforce.LoadBalanced,
		LabelSwitching: true,
		FlowTTL:        5_000_000,
		LabelTTL:       5_000_000,
		HashSeed:       9,
	})
	rng := rand.New(rand.NewSource(99))

	inject := func(start int64, flows int) {
		for i := 0; i < flows; i++ {
			src := 1 + rng.Intn(3)
			dst := 1 + rng.Intn(2)
			if dst >= src {
				dst++
			}
			ft := flowTuple(src, dst, 80, uint16(rng.Intn(50000)))
			if err := b.nw.InjectFlow(ft, 2+rng.Intn(6), 400, start+int64(i)*40, 900); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Phase 1: traffic under uniform weights.
	inject(0, 120)
	b.nw.Run(0)

	// Rebalance from live measurements.
	meas := controller.Collect(b.nodes)
	b.recompute(t, meas)

	// Periodic sweeps plus phase 2 traffic.
	for _, n := range b.nodes {
		n.Sweep(b.nw.Engine.Now())
	}
	inject(b.nw.Engine.Now()+1000, 120)
	b.nw.Run(0)

	// Fail the hottest firewall mid-run, repair, then phase 3.
	var hot topo.NodeID = topo.InvalidNode
	var hotLoad int64 = -1
	for _, id := range b.dep.Providers(policy.FuncFW) {
		if l := b.nodes[id].Counters.Load; l > hotLoad {
			hot, hotLoad = id, l
		}
	}
	if err := b.ctl.MarkFailed(hot, true); err != nil {
		t.Fatal(err)
	}
	b.pipe.NodeChanged(hot)
	b.recompute(t, meas)
	inject(b.nw.Engine.Now()+1000, 120)
	b.nw.Run(0)

	s := b.nw.Stats()
	if s.EnforcementErrors != 0 {
		t.Errorf("enforcement errors: %+v", s)
	}
	accounted := s.Delivered + s.ServedLocally + s.DroppedPolicy + s.DroppedTTL + s.DroppedNoRoute + s.Misdelivered
	// Label misses (soft-state races around the failure) also consume
	// packets; count them from the nodes.
	var labelMisses int64
	for _, n := range b.nodes {
		labelMisses += n.Counters.LabelMiss
	}
	accounted += labelMisses
	if accounted != s.PacketsInjected {
		t.Errorf("packet conservation broken: injected %d, accounted %d (%+v, labelMisses=%d)",
			s.PacketsInjected, accounted, s, labelMisses)
	}
	if s.Delivered == 0 {
		t.Error("soak delivered nothing")
	}
	if got := b.nodes[hot].Counters.Load; got != hotLoad {
		t.Errorf("failed firewall gained load after repair: %d -> %d", hotLoad, got)
	}
}
