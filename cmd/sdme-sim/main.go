// Command sdme-sim runs one policy-enforcement experiment and prints the
// resulting per-middlebox load distribution.
//
// Usage:
//
//	sdme-sim [-topology campus|waxman] [-strategy hp|rand|lb]
//	         [-traffic 1000000] [-policies 10] [-seed 20]
//	         [-trace 1:2:80 | -packet-level [-labels] [-metrics out.prom]]
//	         [-controllers 3 -kill-leader-at 200000 [-kill-leaders 1]]
//
// The default mode uses the fast flow-level evaluator (valid because the
// dataplane pins each flow to one middlebox chain). -packet-level runs
// the discrete-event simulator instead, on a proportionally reduced
// traffic volume, and also reports network-level statistics. With
// -metrics the packet-level run attaches the unified metrics registry
// (virtual-time clock) and writes the final Prometheus text exposition
// to the given file ("-" for stdout) — the same family names sdme-live
// serves over HTTP.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/experiments"
	"sdme/internal/faultinject"
	"sdme/internal/metrics"
	"sdme/internal/netaddr"
	"sdme/internal/policy"
	"sdme/internal/topo"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sdme-sim:", err)
		os.Exit(1)
	}
}

func parseStrategy(s string) (enforce.Strategy, error) {
	switch strings.ToLower(s) {
	case "hp", "hotpotato", "hot-potato":
		return enforce.HotPotato, nil
	case "rand", "random":
		return enforce.Random, nil
	case "lb", "loadbalanced", "load-balanced":
		return enforce.LoadBalanced, nil
	default:
		return 0, fmt.Errorf("unknown strategy %q (want hp, rand or lb)", s)
	}
}

func run() error {
	topoName := flag.String("topology", "campus", "campus or waxman")
	stratName := flag.String("strategy", "lb", "hp, rand or lb")
	traffic := flag.Int("traffic", 1000000, "total packets to generate")
	policies := flag.Int("policies", 10, "policies per class")
	seed := flag.Int64("seed", 20, "deterministic seed")
	labels := flag.Bool("labels", false, "enable §III-E label switching (packet-level mode)")
	packetLevel := flag.Bool("packet-level", false, "run the discrete-event simulator")
	traceSpec := flag.String("trace", "", "trace one flow: srcSubnet:dstSubnet:dstPort (e.g. 1:2:80)")
	metricsOut := flag.String("metrics", "", "packet-level mode: write the final metrics exposition to this file (\"-\" = stdout)")
	killAt := flag.Int64("kill-at", 0, "packet-level mode: kill the first firewall middlebox at this virtual time (us) to exercise local fast failover (0: disabled)")
	journalPath := flag.String("journal", "", "packet-level mode: controller write-ahead journal, replayed on start if present (empty: disabled)")
	controllers := flag.Int("controllers", 1, "controller replicas; >1 runs the replicated-HA takeover scenario instead of a traffic experiment")
	killLeaderAt := flag.Int64("kill-leader-at", 0, "HA mode: virtual us after the first rollout at which the elected leader is killed (0: 10 lease windows)")
	killLeaders := flag.Int("kill-leaders", 1, "HA mode: how many consecutive leaders to assassinate")
	flag.Parse()
	set := make(map[string]bool)
	var notHA string // the first flag set that the HA mode does not read
	flag.Visit(func(f *flag.Flag) {
		set[f.Name] = true
		switch f.Name {
		case "controllers", "kill-leader-at", "kill-leaders", "seed":
		default:
			if notHA == "" {
				notHA = f.Name
			}
		}
	})

	if *controllers > 1 {
		if notHA != "" {
			return fmt.Errorf("-%s does not apply with -controllers > 1", notHA)
		}
		return runHATakeover(*controllers, *killLeaders, *killLeaderAt, *seed)
	}
	for _, name := range []string{"kill-leader-at", "kill-leaders"} {
		if set[name] {
			return fmt.Errorf("-%s requires -controllers > 1", name)
		}
	}
	if *packetLevel && *traceSpec != "" {
		return fmt.Errorf("-trace requires the flow-level mode (drop -packet-level)")
	}
	if !*packetLevel && *labels {
		return fmt.Errorf("-labels requires -packet-level")
	}

	strategy, err := parseStrategy(*stratName)
	if err != nil {
		return err
	}
	bed, err := experiments.NewBed(experiments.Config{
		Topology: *topoName, Seed: *seed, PoliciesPerClass: *policies,
	})
	if err != nil {
		return err
	}
	stats := bed.Graph.Summarize()
	fmt.Printf("topology %s: %d nodes, %d links, %d middleboxes, %d proxies\n",
		*topoName, stats.Nodes, stats.Links, stats.Middleboxes, stats.Proxies)

	if *packetLevel {
		return runPacketLevel(bed, strategy, *traffic, *labels, *seed, *metricsOut, *killAt, *journalPath)
	}
	if *metricsOut != "" {
		return fmt.Errorf("-metrics requires -packet-level (the flow-level evaluator has no dataplane to observe)")
	}
	if *killAt != 0 || *journalPath != "" {
		return fmt.Errorf("-kill-at and -journal require -packet-level")
	}

	demands := bed.GenerateDemands(*traffic)
	report, sol, err := bed.RunStrategy(strategy, demands)
	if err != nil {
		return err
	}
	if *traceSpec != "" {
		if err := traceOne(bed, strategy, demands, *traceSpec); err != nil {
			return err
		}
	}
	fmt.Printf("strategy %v, %d flows, %d packets\n", strategy, len(demands), report.TotalPackets)
	if sol != nil {
		fmt.Printf("LB optimum λ = %.0f packets (LP: %d vars, %d constraints, %d pivots)\n",
			sol.Lambda, sol.Vars, sol.Constraints, sol.Iterations)
	}
	printLoads(bed, report)
	fmt.Printf("average policy-enforced path cost: %.2f hops/packet\n", report.AvgPathCost())
	return nil
}

// runHATakeover hosts N controller replicas on the virtual clock, kills
// the elected leader(s) mid-history, and prints the takeover story — the
// replicated-HA scenario (DESIGN §11), deterministic per seed.
func runHATakeover(replicas, kills int, killLeaderAtUS, seed int64) error {
	res, err := experiments.Run(experiments.Sim, experiments.Takeover(seed, replicas, kills, killLeaderAtUS))
	if err != nil {
		return err
	}
	fmt.Printf("controller HA: promotion trace %s\n\n%s", res.Trace, experiments.HATable([]experiments.Result{*res}).Markdown())
	if !res.ExportIdentical || !res.StaleRejected || !res.Resumed {
		return fmt.Errorf("HA takeover degraded (see above)")
	}
	return nil
}

// traceOne resolves a "src:dst:port" spec and prints the flow's exact
// enforcement path under the given strategy (with LB weights solved for
// the same demand set, so the answer matches the evaluation above).
func traceOne(bed *experiments.Bed, strategy enforce.Strategy, demands []enforce.FlowDemand, spec string) error {
	parts := strings.Split(spec, ":")
	if len(parts) != 3 {
		return fmt.Errorf("bad -trace %q, want src:dst:port", spec)
	}
	src, err1 := strconv.Atoi(parts[0])
	dst, err2 := strconv.Atoi(parts[1])
	port, err3 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil || err3 != nil {
		return fmt.Errorf("bad -trace %q", spec)
	}
	ctl := controller.New(bed.Dep, bed.AllPairs, bed.Table, controller.Options{
		Strategy: strategy, K: controller.DefaultK(),
	})
	_, nodes, _, err := ctl.Deploy(controller.PipelineOptions{},
		controller.MeasurementsFromFlows(bed.Dep, bed.Table, demands))
	if err != nil {
		return err
	}
	ft := netaddr.FiveTuple{
		Src: topo.HostAddr(src, 1), Dst: topo.HostAddr(dst, 1),
		SrcPort: 33333, DstPort: uint16(port), Proto: netaddr.ProtoTCP,
	}
	tr, err := enforce.TraceFlow(nodes, bed.Dep, bed.AllPairs, ft)
	if err != nil {
		return err
	}
	fmt.Printf("\ntrace: %s\n", tr)
	for _, h := range tr.Hops {
		names := make([]string, len(h.Candidates))
		for i, c := range h.Candidates {
			names[i] = bed.Graph.Node(c).Name
		}
		fmt.Printf("  %-4s -> %-6s (+%.0f hops) chosen from %v\n",
			h.Func, bed.Graph.Node(h.Node).Name, h.Cost, names)
	}
	return nil
}

func printLoads(bed *experiments.Bed, report *enforce.LoadReport) {
	for _, f := range experiments.Funcs {
		providers := topo.SortedIDs(bed.Dep.Providers(f))
		if len(providers) == 0 {
			continue
		}
		fmt.Printf("\n%s middleboxes:\n", f)
		loads := report.LoadsOf(bed.Dep, f)
		for i, id := range providers {
			bar := strings.Repeat("#", int(60*loads[i]/(1+report.MaxLoad(bed.Dep, f))))
			fmt.Printf("  %-8s %9d %s\n", bed.Graph.Node(id).Name, loads[i], bar)
		}
	}
}

func runPacketLevel(bed *experiments.Bed, strategy enforce.Strategy, traffic int, labels bool, seed int64, metricsOut string, killAt int64, journalPath string) error {
	// Packet-level simulation is detailed; cap the injected volume.
	const maxPackets = 200000
	if traffic > maxPackets {
		fmt.Printf("packet-level mode: reducing traffic %d -> %d packets\n", traffic, maxPackets)
		traffic = maxPackets
	}
	ctl := controller.New(bed.Dep, bed.AllPairs, bed.Table, controller.Options{
		Strategy: strategy, K: controller.DefaultK(),
		LabelSwitching: labels, HashSeed: uint64(seed),
	})
	if journalPath != "" {
		st, err := ctl.AttachJournal(journalPath)
		if err != nil {
			return err
		}
		defer ctl.Journal().Close()
		if st.Records > 0 {
			fmt.Printf("journal: replayed %d records (epoch %d, %d failed middleboxes, torn tail: %v)\n",
				st.Records, st.Epoch, len(st.Failed), st.Torn)
		}
	}
	pipe, nodes, _, err := ctl.Deploy(controller.PipelineOptions{}, nil)
	if err != nil {
		return err
	}
	sub := experiments.NewSim(experiments.Site{Graph: bed.Graph, Dep: bed.Dep, Nodes: nodes})
	fmt.Printf("OSPF converged: %d flooding rounds, %d LSA messages\n", sub.Flooding.Rounds, sub.Flooding.Messages)

	nw := sub.Network
	var reg *metrics.Registry
	if metricsOut != "" {
		reg = nw.NewRegistry()
		nw.AttachMetrics(reg)
		ctl.SetMetrics(reg, nw.Engine.Now)
	}
	if strategy == enforce.LoadBalanced {
		demands := bed.GenerateDemands(traffic)
		meas := controller.MeasurementsFromFlows(bed.Dep, bed.Table, demands)
		if _, err := sub.Rebalance(experiments.Plane{Ctl: ctl, Pipe: pipe}, meas); err != nil {
			return err
		}
	}
	demands := bed.GenerateDemands(traffic)
	at := int64(0)
	for _, d := range demands {
		if err := nw.InjectFlow(d.Tuple, int(d.Packets), 512, at, 200); err != nil {
			return err
		}
		at += 13
	}
	// Local fast failover demo: at the requested virtual time the first
	// firewall dies. No controller reaction is registered — recovery must
	// come entirely from the pre-installed backup candidate lists.
	var victim topo.NodeID
	if killAt > 0 {
		fws := topo.SortedIDs(bed.Dep.Providers(policy.FuncFW))
		if len(fws) < 2 {
			return fmt.Errorf("-kill-at needs at least 2 FW middleboxes, have %d", len(fws))
		}
		victim = fws[0]
		fmt.Printf("failover: %s dies at t=%dus (no controller involvement)\n",
			bed.Graph.Node(victim).Name, killAt)
		sub.Play(&faultinject.Schedule{Events: []faultinject.Event{
			{AtUS: killAt, Kind: faultinject.KindCrash, Target: victim},
		}}, func(ev faultinject.Event) {
			_ = sub.Apply(ev) // a crash always stages; only a controller fault can fail to
		})
	}
	sub.Drain()
	s := nw.Stats()
	fmt.Printf("\nsimulation: injected=%d delivered=%d served=%d dropped(policy)=%d hops=%d\n",
		s.PacketsInjected, s.Delivered, s.ServedLocally, s.DroppedPolicy, s.PacketHops)
	fmt.Printf("fragments=%d reassemblies=%d control=%d errors=%d\n",
		s.FragmentsCreated, s.Reassemblies, s.ControlMessages, s.EnforcementErrors)
	if killAt > 0 {
		t := sub.Totals()
		fmt.Printf("failover: %d selections diverted to backups, %d soft-state entries purged after %s died\n",
			t.Failovers, t.Invalidated, bed.Graph.Node(victim).Name)
	}

	loads := nw.MiddleboxLoads()
	ids := make([]topo.NodeID, 0, len(loads))
	for id := range loads {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	fmt.Println("\nmiddlebox loads:")
	for _, id := range ids {
		fmt.Printf("  %-8s %9d\n", bed.Graph.Node(id).Name, loads[id])
	}

	if reg != nil {
		snap := reg.Snapshot()
		if metricsOut == "-" {
			fmt.Printf("\n%s", snap.Text)
		} else if err := os.WriteFile(metricsOut, snap.Text, 0o644); err != nil {
			return err
		} else {
			fmt.Printf("\nmetrics exposition (virtual time %dus) written to %s\n", snap.AtUS, metricsOut)
		}
	}
	return nil
}
