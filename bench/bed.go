package main

import (
	"fmt"
	"math/rand"
	"time"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/netaddr"
	"sdme/internal/policy"
	"sdme/internal/route"
	"sdme/internal/topo"
	"sdme/internal/workload"
)

// tableShards is the flow/label table striping every workload runs with.
const tableShards = 16

// demandPackets sizes one synthetic measurement population (§IV-A scale:
// ~6k power-law flows).
const demandPackets = 200000

// bedSeed fixes the deployment every run measures: topology wiring,
// middlebox placement and the initial policy table. The -seed flag drives
// what flows over it — flow populations and edit sequences. LP size and
// chain lengths follow the deployment, so drawing it per run would make
// runs on different seeds measure different systems.
const bedSeed = 20

// bed is the paper's §IV-A campus deployment with a controller and its
// incremental pipeline on top: 7 FW / 7 IDS / 4 WP / 4 TM on random core
// routers, k = 4/4/2/2, three policy classes.
type bed struct {
	dep     *enforce.Deployment
	ap      *route.AllPairs
	table   *policy.Table
	classed []workload.ClassedPolicy
	wcfg    workload.GenConfig
	ctl     *controller.Controller
	pipe    *controller.Pipeline
	// bedRng (from bedSeed) draws the demand the initial plan is solved
	// for; traffic (from -seed) draws everything measured afterwards.
	// The weights in force are thus those of the previous measurement
	// interval, as in §III-C, and set-up does the same work on every run.
	bedRng, traffic *rand.Rand
}

// setupTimes splits setup_s into its three stages.
type setupTimes struct {
	bed, solve, rollout time.Duration
}

func (s setupTimes) total() time.Duration { return s.bed + s.solve + s.rollout }

// newCampusBed builds the deployment, the policy table and the controller
// from bedSeed; seed drives the bed's traffic generator.
func newCampusBed(seed int64, policiesPerClass int, opts controller.Options) (*bed, error) {
	rng := rand.New(rand.NewSource(bedSeed))
	g := topo.Campus(topo.CampusConfig{WithProxies: true}, rng)
	dep, err := enforce.NewDeployment(g)
	if err != nil {
		return nil, err
	}
	dep.PlaceRandom(controller.DefaultCounts(), rng)
	tbl := policy.NewTable()
	wcfg := workload.GenConfig{Subnets: dep.NumSubnets(), PoliciesPerClass: policiesPerClass}
	classed := workload.GeneratePolicies(wcfg, tbl, rng)
	ap := route.NewAllPairs(g, route.RouterTransitOnly(g))

	opts.Strategy = enforce.LoadBalanced
	opts.K = controller.DefaultK()
	ctl := controller.New(dep, ap, tbl, opts)
	return &bed{
		dep: dep, ap: ap, table: tbl, classed: classed, wcfg: wcfg,
		ctl: ctl, pipe: ctl.NewPipeline(controller.PipelineOptions{}),
		bedRng: rng, traffic: rand.New(rand.NewSource(seed)),
	}, nil
}

// demands draws a fresh flow population of about demandPackets packets
// over the bed's current classed policies, from the run's seed.
func (b *bed) demands() []workload.Flow {
	return workload.GenerateFlows(b.wcfg, b.classed, demandPackets, b.traffic)
}

// initialDemands draws the population the initial plan is solved for, over
// the given policies, from the bed's seed.
func (b *bed) initialDemands(classed []workload.ClassedPolicy) []workload.Flow {
	return workload.GenerateFlows(b.wcfg, classed, demandPackets, b.bedRng)
}

// measurements is what the proxies would report for the flows under the
// current policy table.
func (b *bed) measurements(flows []workload.Flow) controller.Measurements {
	fd := make([]enforce.FlowDemand, len(flows))
	for i, f := range flows {
		fd[i] = enforce.FlowDemand{Tuple: f.Tuple, Packets: int64(f.Packets)}
	}
	return controller.MeasurementsFromFlows(b.dep, b.table, fd)
}

// buildShardedNodes materializes a plan's nodes with the benchmark's table
// striping. Shard counts never travel in a Config, so they are set as the
// node-local preference and applied by re-installing the same config.
func buildShardedNodes(ctl *controller.Controller, plan *controller.Plan) (map[topo.NodeID]*enforce.Node, error) {
	nodes, err := ctl.BuildNodesFromPlan(plan)
	if err != nil {
		return nil, err
	}
	for _, n := range nodes {
		n.SetShardTuning(tableShards, tableShards)
		if err := n.Install(n.Config()); err != nil {
			return nil, err
		}
	}
	return nodes, nil
}

// uniqueTuples returns the first n flows' five-tuples that are distinct
// under key. The generator goroutines own disjoint flow sets (the Node
// flow-affinity contract), so no two templates may name the same flow.
func uniqueTuples(flows []workload.Flow, n int, key func(netaddr.FiveTuple) netaddr.FiveTuple) ([]netaddr.FiveTuple, error) {
	seen := make(map[netaddr.FiveTuple]bool, n)
	out := make([]netaddr.FiveTuple, 0, n)
	for _, f := range flows {
		k := key(f.Tuple)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, f.Tuple)
		if len(out) == n {
			return out, nil
		}
	}
	return nil, fmt.Errorf("bench: only %d distinct flows, need %d", len(out), n)
}
