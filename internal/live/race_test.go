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
	"sdme/internal/policy"
	"sdme/internal/route"
	"sdme/internal/topo"
)

// buildLiveNodes builds controller-configured dataplane nodes without
// registering them as devices, so tests can exercise concurrent AddDevice.
func buildLiveNodes(t *testing.T) map[topo.NodeID]*enforce.Node {
	t.Helper()
	rng := rand.New(rand.NewSource(2))
	g := topo.Campus(topo.CampusConfig{Gateways: 2, CoreRouters: 4, EdgeRouters: 2, WithProxies: true}, rng)
	dep, err := enforce.NewDeployment(g)
	if err != nil {
		t.Fatal(err)
	}
	cores := g.NodesOfKind(topo.KindCoreRouter)
	dep.AddMiddlebox(cores[0], "fw1", policy.FuncFW)
	dep.AddMiddlebox(cores[1], "ids1", policy.FuncIDS)

	tbl := policy.NewTable()
	d := policy.NewDescriptor()
	d.DstPort = netaddr.SinglePort(80)
	tbl.Add(d, policy.ActionList{policy.FuncFW, policy.FuncIDS})

	ap := route.NewAllPairs(g, route.RouterTransitOnly(g))
	ctl := controller.New(dep, ap, tbl, controller.Options{
		K: map[policy.FuncType]int{policy.FuncFW: 1, policy.FuncIDS: 1},
	})
	upd, err := ctl.NewPipeline(controller.PipelineOptions{}).Recompute(nil)
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := ctl.BuildNodesFromPlan(upd.Plan)
	if err != nil {
		t.Fatal(err)
	}
	return nodes
}

// TestConcurrentAddProbeStop drives the runtime the way a live deployment
// does: devices registering while the health monitor is already probing,
// counters queried concurrently, and a device stopped from several
// goroutines at once. Run under -race this pins down the registry and
// device lifecycle synchronization (unsynchronized devices/sinks appends,
// double-close of done, counters read racing the device loop's last frame).
func TestConcurrentAddProbeStop(t *testing.T) {
	nodes := buildLiveNodes(t)
	rt := live.NewRuntime()
	t.Cleanup(rt.Close)

	hm := rt.NewHealthMonitor(2*time.Millisecond, 2, nil, nil)
	hm.Start()
	defer hm.Stop()

	// Register every device concurrently while the monitor iterates.
	var wg sync.WaitGroup
	devCh := make(chan *live.Device, len(nodes))
	for _, n := range nodes {
		wg.Add(1)
		go func(n *enforce.Node) {
			defer wg.Done()
			d, err := rt.AddDevice(n)
			if err != nil {
				t.Error(err)
				return
			}
			devCh <- d
		}(n)
	}
	wg.Wait()
	close(devCh)
	devices := make([]*live.Device, 0, len(nodes))
	for d := range devCh {
		devices = append(devices, d)
	}
	if len(devices) != len(nodes) {
		t.Fatalf("registered %d devices, want %d", len(devices), len(nodes))
	}
	if got := len(rt.Devices()); got != len(nodes) {
		t.Fatalf("Devices() sees %d devices, want %d", got, len(nodes))
	}

	// Concurrent counters queries against live devices, plus a device
	// stopped from several goroutines at once; Counters after Stop must
	// still return a settled snapshot.
	target := devices[0]
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			target.Stop()
			_ = target.Counters()
		}()
	}
	for _, d := range devices {
		wg.Add(1)
		go func(d *live.Device) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				_ = d.Counters()
			}
		}(d)
	}
	wg.Wait()
}
