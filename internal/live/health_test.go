package live_test

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/live"
	"sdme/internal/netaddr"
	"sdme/internal/packet"
	"sdme/internal/policy"
	"sdme/internal/route"
	"sdme/internal/topo"
)

func TestHealthMonitorDetectsStoppedDevice(t *testing.T) {
	b := newLiveBed(t, controller.Options{Strategy: enforce.HotPotato})

	var mu sync.Mutex
	var downEvents []topo.NodeID
	mon := b.rt.NewHealthMonitor(20*time.Millisecond, 2, func(id topo.NodeID) {
		mu.Lock()
		downEvents = append(downEvents, id)
		mu.Unlock()
	}, nil)
	mon.Start()
	defer mon.Stop()

	time.Sleep(100 * time.Millisecond)
	if got := mon.Down(); len(got) != 0 {
		t.Fatalf("healthy runtime reports down devices: %v", got)
	}

	victim := b.dep.MBNodes[0]
	b.devices[victim].Stop()

	if !live.WaitUntil(3*time.Second, func() bool { return mon.IsDown(victim) }) {
		t.Fatal("monitor never detected the stopped device")
	}
	mu.Lock()
	gotEvents := len(downEvents)
	mu.Unlock()
	if gotEvents == 0 {
		t.Error("onDown callback not fired")
	}
	if got := mon.Down(); len(got) != 1 || got[0] != victim {
		t.Errorf("Down() = %v, want [%v]", got, victim)
	}
	for id := range b.devices {
		if id != victim && mon.IsDown(id) {
			t.Errorf("healthy device %v reported down", id)
		}
	}
}

// TestHealthMonitorWedgeAndRecover covers the wedged-device fault mode:
// the device is alive at the socket but its loop is stuck, so probes
// time out and the monitor declares it down; releasing the wedge lets
// the loop drain and the monitor declares it up again — unlike Stop,
// nothing is lost.
func TestHealthMonitorWedgeAndRecover(t *testing.T) {
	b := newLiveBed(t, controller.Options{Strategy: enforce.HotPotato})

	downCh := make(chan topo.NodeID, 8)
	upCh := make(chan topo.NodeID, 8)
	mon := b.rt.NewHealthMonitor(20*time.Millisecond, 2,
		func(id topo.NodeID) { downCh <- id },
		func(id topo.NodeID) { upCh <- id })
	mon.Start()
	defer mon.Stop()

	victim := b.dep.MBNodes[0]
	release := b.devices[victim].Wedge()

	select {
	case id := <-downCh:
		if id != victim {
			t.Fatalf("onDown fired for %v, wedged %v", id, victim)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("monitor never detected the wedged device")
	}
	if !mon.IsDown(victim) {
		t.Error("IsDown(victim) = false after onDown")
	}
	for id := range b.devices {
		if id != victim && mon.IsDown(id) {
			t.Errorf("healthy device %v reported down", id)
		}
	}

	release()
	release() // idempotent: a double release must not panic or re-wedge

	select {
	case id := <-upCh:
		if id != victim {
			t.Fatalf("onUp fired for %v, released %v", id, victim)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("monitor never saw the device recover")
	}
	// The loop drains normally after release: commands still execute.
	if !b.devices[victim].Do(func(n *enforce.Node) {}) {
		t.Error("Do failed after unwedge")
	}
}

// TestHealthMonitorDrivesControllerRepair runs the full dependability
// loop over real sockets: a firewall process dies, the health monitor
// reports it, the controller marks it failed and reassigns candidates on
// the live nodes, and subsequent flows traverse the surviving firewall.
func TestHealthMonitorDrivesControllerRepair(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := topo.Campus(topo.CampusConfig{Gateways: 2, CoreRouters: 4, EdgeRouters: 2, WithProxies: true}, rng)
	dep, err := enforce.NewDeployment(g)
	if err != nil {
		t.Fatal(err)
	}
	cores := g.NodesOfKind(topo.KindCoreRouter)
	dep.AddMiddlebox(cores[0], "fw1", policy.FuncFW)
	dep.AddMiddlebox(cores[2], "fw2", policy.FuncFW)
	dep.AddMiddlebox(cores[1], "ids1", policy.FuncIDS)

	tbl := policy.NewTable()
	d := policy.NewDescriptor()
	d.DstPort = netaddr.SinglePort(80)
	tbl.Add(d, policy.ActionList{policy.FuncFW, policy.FuncIDS})

	ap := route.NewAllPairs(g, route.RouterTransitOnly(g))
	ctl := controller.New(dep, ap, tbl, controller.Options{
		Strategy: enforce.HotPotato,
		K:        map[policy.FuncType]int{policy.FuncFW: 2, policy.FuncIDS: 1},
	})
	pipe := ctl.NewPipeline(controller.PipelineOptions{})
	upd, err := pipe.Recompute(nil)
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := ctl.BuildNodesFromPlan(upd.Plan)
	if err != nil {
		t.Fatal(err)
	}

	rt := live.NewRuntime()
	t.Cleanup(rt.Close)
	devices := make(map[topo.NodeID]*live.Device)
	for id, n := range nodes {
		dev, err := rt.AddDevice(n)
		if err != nil {
			t.Fatal(err)
		}
		devices[id] = dev
	}
	sink, err := rt.AddSink(topo.HostAddr(2, 1))
	if err != nil {
		t.Fatal(err)
	}

	repaired := make(chan topo.NodeID, 4)
	mon := rt.NewHealthMonitor(20*time.Millisecond, 2, func(id topo.NodeID) {
		if err := ctl.MarkFailed(id, true); err != nil {
			t.Errorf("MarkFailed(%v): %v", id, err)
			return
		}
		// Live nodes are owned by their device goroutines: recompile the
		// plan here, apply each node's delta inside its owner.
		pipe.NodeChanged(id)
		upd, err := pipe.Recompute(nil)
		if err != nil {
			t.Errorf("Recompute: %v", err)
			return
		}
		for nodeID, d := range upd.Deltas {
			if dev, ok := devices[nodeID]; ok {
				d := d
				dev.Do(func(n *enforce.Node) {
					if err := n.ApplyDelta(d); err != nil {
						t.Errorf("ApplyDelta on %v: %v", nodeID, err)
					}
				})
			}
		}
		repaired <- id
	}, nil)
	mon.Start()
	defer mon.Stop()

	proxyID, _ := dep.ProxyFor(1)
	proxyAddr := dep.AddrOf(proxyID)
	ft := netaddr.FiveTuple{
		Src: topo.HostAddr(1, 1), Dst: topo.HostAddr(2, 1),
		SrcPort: 45000, DstPort: 80, Proto: netaddr.ProtoTCP,
	}
	if err := rt.Inject(proxyAddr, packet.New(ft, 16)); err != nil {
		t.Fatal(err)
	}
	if !live.WaitUntil(3*time.Second, func() bool { return sink.Received() >= 1 }) {
		t.Fatal("baseline packet not delivered")
	}

	// Kill the firewall the flow used.
	var used topo.NodeID = topo.InvalidNode
	for _, id := range dep.Providers(policy.FuncFW) {
		if devices[id].Counters().Load > 0 {
			used = id
		}
	}
	if used == topo.InvalidNode {
		t.Fatal("no firewall processed the baseline packet")
	}
	devices[used].Stop()

	select {
	case <-repaired:
	case <-time.After(5 * time.Second):
		t.Fatal("repair never ran")
	}

	// A fresh flow must traverse the surviving firewall and reach the
	// sink. (The old flow's proxy cache still names the same policy; the
	// candidate swap redirects its next packets too, but a fresh flow
	// makes the assertion crisp.)
	ft2 := ft
	ft2.SrcPort = 45001
	before := sink.Received()
	if err := rt.Inject(proxyAddr, packet.New(ft2, 16)); err != nil {
		t.Fatal(err)
	}
	if !live.WaitUntil(3*time.Second, func() bool { return sink.Received() > before }) {
		t.Fatalf("traffic stopped after failover (sink=%d)", sink.Received())
	}
	var survivor topo.NodeID
	for _, id := range dep.Providers(policy.FuncFW) {
		if id != used {
			survivor = id
		}
	}
	if devices[survivor].Counters().Load == 0 {
		t.Error("survivor firewall processed nothing after failover")
	}
}
