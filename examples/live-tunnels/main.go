// Live tunnels: the same enforcement dataplane that powers the simulator,
// running as goroutines with real UDP sockets on loopback. A policy chain
// FW -> IDS -> TM is enforced on actual datagrams; the program prints the
// journey of the flow's packets through the live middleboxes.
//
//	go run ./examples/live-tunnels
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/experiments"
	"sdme/internal/live"
	"sdme/internal/netaddr"
	"sdme/internal/packet"
	"sdme/internal/policy"
	"sdme/internal/route"
	"sdme/internal/topo"
)

func main() {
	rng := rand.New(rand.NewSource(4))
	g := topo.Campus(topo.CampusConfig{Gateways: 2, CoreRouters: 5, EdgeRouters: 3, WithProxies: true}, rng)
	dep, err := enforce.NewDeployment(g)
	if err != nil {
		log.Fatal(err)
	}
	cores := g.NodesOfKind(topo.KindCoreRouter)
	dep.AddMiddlebox(cores[0], "fw1", policy.FuncFW)
	dep.AddMiddlebox(cores[2], "fw2", policy.FuncFW)
	dep.AddMiddlebox(cores[1], "ids1", policy.FuncIDS)
	dep.AddMiddlebox(cores[3], "tm1", policy.FuncTM)

	tbl := policy.NewTable()
	d := policy.NewDescriptor()
	d.Dst = topo.SubnetPrefix(2)
	tbl.Add(d, policy.ActionList{policy.FuncFW, policy.FuncIDS, policy.FuncTM})

	ap := route.NewAllPairs(g, route.RouterTransitOnly(g))
	ctl := controller.New(dep, ap, tbl, controller.Options{
		Strategy:       enforce.LoadBalanced,
		K:              map[policy.FuncType]int{policy.FuncFW: 2, policy.FuncIDS: 1, policy.FuncTM: 1},
		LabelSwitching: true,
	})
	upd, err := ctl.NewPipeline(controller.PipelineOptions{}).Recompute(nil)
	if err != nil {
		log.Fatal(err)
	}
	nodes, err := ctl.BuildNodesFromPlan(upd.Plan)
	if err != nil {
		log.Fatal(err)
	}

	fleet := experiments.NewFleet()
	defer fleet.Close()
	if err := fleet.Add(nodes); err != nil {
		log.Fatal(err)
	}
	rt, devices := fleet.Runtime, fleet.Devices
	sink, err := rt.AddSink(topo.HostAddr(2, 1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d devices live on 127.0.0.1 (each with its own UDP socket)\n\n", len(devices))

	// Two flows from different subnets; LB weights default to uniform
	// hash splits over each node's candidate set without measurements.
	proxy1, _ := dep.ProxyFor(1)
	proxy3, _ := dep.ProxyFor(3)
	flows := []struct {
		via  netaddr.Addr
		ft   netaddr.FiveTuple
		pkts int
	}{
		{dep.AddrOf(proxy1), netaddr.FiveTuple{Src: topo.HostAddr(1, 1), Dst: topo.HostAddr(2, 1), SrcPort: 41000, DstPort: 80, Proto: netaddr.ProtoTCP}, 6},
		{dep.AddrOf(proxy3), netaddr.FiveTuple{Src: topo.HostAddr(3, 9), Dst: topo.HostAddr(2, 1), SrcPort: 42000, DstPort: 22, Proto: netaddr.ProtoTCP}, 4},
	}
	total := 0
	for _, f := range flows {
		fmt.Printf("flow %v: %d packets\n", f.ft, f.pkts)
		// First packet installs the chain; wait for the control message
		// so the rest ride labels.
		if err := rt.Inject(f.via, packet.New(f.ft, 100)); err != nil {
			log.Fatal(err)
		}
		proxyDev := devices[g.NodeByAddr(f.via)]
		before := proxyDev.Counters().ControlRx
		live.WaitUntil(2*time.Second, func() bool { return proxyDev.Counters().ControlRx > before })
		for i := 1; i < f.pkts; i++ {
			if err := rt.Inject(f.via, packet.New(f.ft, 100)); err != nil {
				log.Fatal(err)
			}
		}
		total += f.pkts
	}
	if !live.WaitUntil(5*time.Second, func() bool { return sink.Received() >= total }) {
		log.Fatalf("sink received %d of %d", sink.Received(), total)
	}

	fmt.Printf("\nall %d packets delivered; per-middlebox view:\n", sink.Received())
	for _, id := range dep.MBNodes {
		c := devices[id].Counters()
		fmt.Printf("  %-5s processed=%-3d tunneledOn=%-3d labelSwitchedOn=%-3d controlSent=%d\n",
			g.Node(id).Name, c.Load, c.TunnelTx, c.LabelTx, c.ControlTx)
	}
	fmt.Println("\nNote fw1/fw2: the load-balanced strategy hash-splits flows across")
	fmt.Println("the candidate firewalls while every packet of one flow stays put.")
}
