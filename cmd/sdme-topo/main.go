// Command sdme-topo inspects the generated topologies: node/link
// statistics, middlebox placement, OSPF routing tables and the
// controller's candidate assignments.
//
// Usage:
//
//	sdme-topo [-topology campus|waxman] [-seed 20] [-routes edge1]
//	          [-candidates proxy-edge1] [-observe]
//
// -observe runs the unified observability layer over the simulated
// dataplane: it injects enforced flows with the metrics registry and
// the runtime packet tracer attached, differentially checks every
// sampled runtime trace against the static plan for both the HP and LB
// selectors, and prints a virtual-time metrics exposition excerpt.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/experiments"
	"sdme/internal/ospf"
	"sdme/internal/sim"
	"sdme/internal/topo"
	"sdme/internal/verify"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sdme-topo:", err)
		os.Exit(1)
	}
}

func run() error {
	topoName := flag.String("topology", "campus", "campus or waxman")
	seed := flag.Int64("seed", 20, "deterministic seed")
	routesOf := flag.String("routes", "", "print the OSPF routing table of this node name")
	candidatesOf := flag.String("candidates", "", "print the candidate sets M_x^e of this node name")
	exportPath := flag.String("export", "", "write the full controller configuration as JSON to this file")
	audit := flag.Bool("audit", false, "build the default deployment and audit enforceability of every policy")
	verifyPlan := flag.Bool("verify", false, "statically verify the controller's plan (candidate sets and LB weights) before any install")
	observe := flag.Bool("observe", false, "run observed simulation: runtime traces vs static plans, plus a metrics exposition excerpt")
	observeFlows := flag.Int("observe-flows", 50, "enforced flows per selector for -observe")
	flag.Parse()

	bed, err := experiments.NewBed(experiments.Config{Topology: *topoName, Seed: *seed, PoliciesPerClass: 1})
	if err != nil {
		return err
	}
	g := bed.Graph
	s := g.Summarize()
	fmt.Printf("topology %s (seed %d)\n", *topoName, *seed)
	fmt.Printf("  nodes: %d (core %d, edge %d, gateways %d, middleboxes %d, proxies %d)\n",
		s.Nodes, s.Core, s.Edge, s.Gateways, s.Middleboxes, s.Proxies)
	fmt.Printf("  links: %d, router degree %d..%d, connected=%v\n",
		s.Links, s.MinRouterDegree, s.MaxRouterDeg, s.ConnectedRouters)

	fmt.Println("\nmiddlebox placement:")
	for _, id := range bed.Dep.MBNodes {
		n := g.Node(id)
		fmt.Printf("  %-8s %-14s attached to %s\n", n.Name, n.Addr, g.Node(n.Attach).Name)
	}

	findByName := func(name string) (topo.NodeID, bool) {
		for i := 0; i < g.NumNodes(); i++ {
			if g.Node(topo.NodeID(i)).Name == name {
				return topo.NodeID(i), true
			}
		}
		return topo.InvalidNode, false
	}

	if *routesOf != "" {
		id, ok := findByName(*routesOf)
		if !ok {
			return fmt.Errorf("no node named %q", *routesOf)
		}
		dom := ospf.NewDomain(g)
		stats := dom.Converge()
		fmt.Printf("\nOSPF: %d rounds, %d messages; routing table of %s:\n",
			stats.Rounds, stats.Messages, *routesOf)
		for _, e := range dom.Table(id).Entries() {
			target := "local"
			if !e.Route.Local {
				target = "via " + g.Node(e.Route.NextHop).Name
			} else if e.Route.NextHop != id {
				target = "deliver to " + g.Node(e.Route.NextHop).Name
			}
			fmt.Printf("  %-18s cost %-4.0f %s\n", e.Prefix, e.Route.Cost, target)
		}
	}

	if *verifyPlan {
		if err := runVerify(bed); err != nil {
			return err
		}
	}

	// defaultDeployment compiles the default controller's first plan and
	// builds every node from it.
	defaultDeployment := func() (*controller.Controller, map[topo.NodeID]*enforce.Node, error) {
		ctl := controller.New(bed.Dep, bed.AllPairs, bed.Table, controller.Options{K: controller.DefaultK()})
		_, nodes, _, err := experiments.Deploy(ctl, controller.PipelineOptions{}, nil)
		return ctl, nodes, err
	}

	if *audit {
		ctl, nodes, err := defaultDeployment()
		if err != nil {
			return err
		}
		vs := ctl.Audit(nodes)
		if len(vs) == 0 {
			fmt.Printf("\naudit: all %d policies enforceable from all %d subnets\n",
				bed.Table.Len(), bed.Dep.NumSubnets())
		} else {
			fmt.Printf("\naudit: %d violations\n", len(vs))
			for _, v := range vs {
				fmt.Println("  " + v.String())
			}
		}
	}

	if *exportPath != "" {
		ctl, nodes, err := defaultDeployment()
		if err != nil {
			return err
		}
		f, err := os.Create(*exportPath)
		if err != nil {
			return err
		}
		if err := ctl.ExportConfig(nodes).WriteJSON(f); err != nil {
			_ = f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("close %s: %w", *exportPath, err)
		}
		fmt.Printf("\nconfiguration exported to %s\n", *exportPath)
	}

	if *observe {
		if err := runObserve(*topoName, *seed, *observeFlows); err != nil {
			return err
		}
	}

	if *candidatesOf != "" {
		id, ok := findByName(*candidatesOf)
		if !ok {
			return fmt.Errorf("no node named %q", *candidatesOf)
		}
		ctl := controller.New(bed.Dep, bed.AllPairs, bed.Table, controller.Options{
			K: controller.DefaultK(),
		})
		fmt.Printf("\ncandidate sets M_x^e of %s (closest first):\n", *candidatesOf)
		cands := ctl.CandidatesOf(id)
		for _, f := range experiments.Funcs {
			list, ok := cands[f]
			if !ok {
				continue
			}
			fmt.Printf("  %-4s:", f)
			for _, mb := range list {
				fmt.Printf(" %s(d=%.0f)", g.Node(mb).Name, bed.AllPairs.Dist(id, mb))
			}
			fmt.Println()
		}
	}
	return nil
}

// runObserve drives the observability layer end to end on the simulated
// dataplane: for each selector it injects enforced flows with metrics
// and tracing attached and reports whether every sampled runtime trace
// reproduced the static plan, then prints an exposition excerpt.
func runObserve(topology string, seed int64, flows int) error {
	fmt.Printf("\nobserved simulation (%d enforced flows per selector):\n", flows)
	var last *experiments.ObservedRun
	for _, strat := range []enforce.Strategy{enforce.HotPotato, enforce.LoadBalanced} {
		// A fresh bed per selector: the flow draw consumes the bed's rng,
		// so both selectors see the same workload.
		bed, err := experiments.NewBed(experiments.Config{Topology: topology, Seed: seed, PoliciesPerClass: 4})
		if err != nil {
			return err
		}
		run, err := bed.RunObserved(experiments.ObserveConfig{
			Strategy: strat, Flows: flows, SnapshotEveryUS: 100_000,
		})
		if err != nil {
			return fmt.Errorf("observe %v: %w", strat, err)
		}
		status := "all runtime traces match the static plans"
		if n := len(run.Mismatches); n > 0 {
			status = fmt.Sprintf("%d MISMATCHES", n)
		}
		extra := ""
		if strat == enforce.LoadBalanced {
			extra = fmt.Sprintf(", λ=%.0f", run.Lambda)
		}
		fmt.Printf("  %-4v %d flows, %d hop records sampled%s: %s\n",
			strat, len(run.Flows), run.Tracer.Total(), extra, status)
		for _, m := range run.Mismatches {
			fmt.Println("    " + m.String())
		}
		if last = run; strat == enforce.HotPotato && len(run.Flows) > 0 {
			g := bed.Graph
			ft := run.Flows[0]
			fmt.Printf("  example: flow %v\n", ft)
			for _, h := range run.Tracer.FlowRecords(ft) {
				fn := ""
				if h.Func != 0 {
					fn = " " + h.Func.String()
				}
				wait := ""
				if h.WaitUS > 0 {
					wait = fmt.Sprintf(" (queued %dus)", h.WaitUS)
				}
				fmt.Printf("    t=%-6dus %-12s %v%s%s\n", h.AtUS, g.Node(h.Node).Name, h.Event, fn, wait)
			}
		}
	}

	snaps := last.Network.Snapshots()
	fmt.Printf("\n  %d virtual-time registry snapshots taken; final exposition excerpt:\n", len(snaps))
	families := []string{
		sim.MetricDelivered, sim.MetricE2ELatency, enforce.MetricFuncPkts,
		controller.MetricLambda, controller.MetricSolves,
	}
	sc := bufio.NewScanner(bytes.NewReader(last.Registry.Snapshot().Text))
	shown := 0
	for sc.Scan() && shown < 14 {
		line := sc.Text()
		for _, f := range families {
			if strings.HasPrefix(line, f) {
				fmt.Println("    " + line)
				shown++
				break
			}
		}
	}
	return nil
}

// runVerify statically verifies the default controller's compiled plans
// for the bed: first the pre-install invariants over the candidate
// assignments of the initial plan, then the lb-weights invariant over the
// plan solved against a synthetic demand set. A plan with hard violations
// fails the command.
func runVerify(bed *experiments.Bed) error {
	ctl := controller.New(bed.Dep, bed.AllPairs, bed.Table, controller.Options{
		Strategy: enforce.LoadBalanced, K: controller.DefaultK(),
	})
	pipe := ctl.NewPipeline(controller.PipelineOptions{})
	upd, err := pipe.Recompute(nil)
	if err != nil {
		return fmt.Errorf("compile plan for verification: %w", err)
	}
	vs := ctl.VerifyPlan(upd.Plan)
	fmt.Printf("\nplan verification (coverage, loop-freedom, hp-optimality, failed-candidate):\n")
	report := func(vs []verify.Violation) {
		for _, v := range vs {
			fmt.Println("  " + v.String())
		}
	}
	if len(vs) == 0 {
		fmt.Printf("  ok: %d nodes, %d policies, no violations\n",
			len(bed.Dep.ProxyNodes)+len(bed.Dep.MBNodes), bed.Table.Len())
	} else {
		report(vs)
	}

	meas := controller.MeasurementsFromFlows(bed.Dep, bed.Table, bed.GenerateDemands(100000))
	if upd, err = pipe.Recompute(meas); err != nil {
		return fmt.Errorf("solve LB for verification: %w", err)
	}
	wvs := ctl.VerifyPlan(upd.Plan)
	fmt.Printf("plan verification (lb-weights, λ=%.3f, %d weighted nodes):\n", upd.Plan.Lambda, len(upd.Plan.Weights))
	if len(wvs) == 0 {
		fmt.Println("  ok: no violations")
	} else {
		report(wvs)
	}
	return verify.AsError(append(vs, wvs...))
}
