// Package experiments regenerates the paper's evaluation (§IV): the
// maximum-load-vs-traffic figures on the campus and Waxman topologies
// (Figures 4 and 5), the load-distribution table (Table III), and the
// extension ablations listed in DESIGN.md. Each experiment builds the
// paper's deployment, generates the three-class workload, runs the
// HP/Rand/LB strategies through the flow-level evaluator, and reports
// per-middlebox packet loads. The dependability stories (recovery,
// failover, controller restart, replicated-controller takeover) are each
// written once over the scenario engine's two backends — see substrate.go.
package experiments

import (
	"fmt"
	"math/rand"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/policy"
	"sdme/internal/route"
	"sdme/internal/topo"
	"sdme/internal/workload"
)

// Funcs lists the middlebox types in the paper's presentation order.
var Funcs = []policy.FuncType{policy.FuncFW, policy.FuncIDS, policy.FuncWP, policy.FuncTM}

// Strategies lists the compared strategies in the paper's order.
var Strategies = []enforce.Strategy{enforce.HotPotato, enforce.Random, enforce.LoadBalanced}

// Config parameterizes one experiment run.
type Config struct {
	// Topology is "campus" or "waxman".
	Topology string
	// Seed drives every random choice (topology, placement, workload).
	Seed int64
	// PoliciesPerClass is the number of policies per class (default 10).
	PoliciesPerClass int
	// TrafficPoints are the x-axis values in total packets; defaults to
	// the paper's 1M..10M sweep.
	TrafficPoints []int
}

func (c *Config) fill() {
	if c.Topology == "" {
		c.Topology = "campus"
	}
	if c.PoliciesPerClass == 0 {
		c.PoliciesPerClass = 10
	}
	if len(c.TrafficPoints) == 0 {
		for m := 1; m <= 10; m++ {
			c.TrafficPoints = append(c.TrafficPoints, m*1000000)
		}
	}
}

// Bed is a fully constructed experiment environment, reusable across
// traffic points and strategies.
type Bed struct {
	Cfg      Config
	Graph    *topo.Graph
	Dep      *enforce.Deployment
	AllPairs *route.AllPairs
	Table    *policy.Table
	Classed  []workload.ClassedPolicy
	rng      *rand.Rand
}

// NewBed builds the topology, deployment and policy set for a config.
func NewBed(cfg Config) (*Bed, error) {
	cfg.fill()
	rng := rand.New(rand.NewSource(cfg.Seed))
	var g *topo.Graph
	switch cfg.Topology {
	case "campus":
		g = topo.Campus(topo.CampusConfig{WithProxies: true}, rng)
	case "waxman":
		g = topo.Waxman(topo.WaxmanConfig{WithProxies: true}, rng)
	default:
		return nil, fmt.Errorf("experiments: unknown topology %q", cfg.Topology)
	}
	dep, err := enforce.NewDeployment(g)
	if err != nil {
		return nil, err
	}
	dep.PlaceRandom(controller.DefaultCounts(), rng)

	tbl := policy.NewTable()
	wcfg := workload.GenConfig{Subnets: dep.NumSubnets(), PoliciesPerClass: cfg.PoliciesPerClass}
	classed := workload.GeneratePolicies(wcfg, tbl, rng)

	return &Bed{
		Cfg:      cfg,
		Graph:    g,
		Dep:      dep,
		AllPairs: route.NewAllPairs(g, route.RouterTransitOnly(g)),
		Table:    tbl,
		Classed:  classed,
		rng:      rng,
	}, nil
}

// GenerateDemands draws a fresh flow population totalling ~target packets.
func (b *Bed) GenerateDemands(target int) []enforce.FlowDemand {
	wcfg := workload.GenConfig{Subnets: b.Dep.NumSubnets(), PoliciesPerClass: b.Cfg.PoliciesPerClass}
	flows := workload.GenerateFlows(wcfg, b.Classed, target, b.rng)
	out := make([]enforce.FlowDemand, len(flows))
	for i, f := range flows {
		out[i] = enforce.FlowDemand{Tuple: f.Tuple, Packets: int64(f.Packets)}
	}
	return out
}

// RunStrategy evaluates one strategy over a demand set, solving and
// installing the LB weights when strategy is LoadBalanced.
func (b *Bed) RunStrategy(strategy enforce.Strategy, demands []enforce.FlowDemand) (*enforce.LoadReport, *controller.LBSolution, error) {
	ctl := controller.New(b.Dep, b.AllPairs, b.Table, controller.Options{
		Strategy: strategy,
		K:        controller.DefaultK(),
		HashSeed: uint64(b.Cfg.Seed)*2654435761 + uint64(strategy),
	})
	_, nodes, upd, err := ctl.Deploy(controller.PipelineOptions{}, controller.MeasurementsFromFlows(b.Dep, b.Table, demands))
	if err != nil {
		return nil, nil, err
	}
	report, err := enforce.EvaluateFlows(nodes, b.Dep, b.AllPairs, demands)
	if err != nil {
		return nil, nil, err
	}
	return report, upd.Solution, nil
}

// FigurePoint is one x-axis point of Figures 4/5.
type FigurePoint struct {
	// TargetTraffic is the configured x value; ActualTraffic the
	// generated total.
	TargetTraffic, ActualTraffic int64
	// MaxLoad[f][s] is the maximum per-middlebox load for function f
	// under strategy s.
	MaxLoad map[policy.FuncType]map[enforce.Strategy]int64
	// MinLoad mirrors MaxLoad (Table III needs both).
	MinLoad map[policy.FuncType]map[enforce.Strategy]int64
	// AvgPathCost[s] is the mean per-packet routed path cost.
	AvgPathCost map[enforce.Strategy]float64
	// Lambda is the LB program's optimum at this point.
	Lambda float64
}

// FigureResult is a complete Figure 4/5 dataset.
type FigureResult struct {
	Topology string
	Points   []FigurePoint
}

// RunMaxLoadFigure regenerates Figure 4 (campus) or Figure 5 (waxman):
// for every traffic point, the maximum load on each middlebox type under
// HP, Rand and LB.
func RunMaxLoadFigure(cfg Config) (*FigureResult, error) {
	bed, err := NewBed(cfg)
	if err != nil {
		return nil, err
	}
	res := &FigureResult{Topology: bed.Cfg.Topology}
	for _, target := range bed.Cfg.TrafficPoints {
		pt, err := bed.RunPoint(target)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, *pt)
	}
	return res, nil
}

// Table is the series of Figures 4/5 (results/figure_<topology>.csv): one
// row per traffic point, one column per (function, strategy) pair.
func (res *FigureResult) Table() *Table {
	cols := []string{"traffic"}
	for _, f := range Funcs {
		for _, s := range Strategies {
			cols = append(cols, fmt.Sprintf("%s_%s_max", f, s))
		}
	}
	t := NewTable(cols...)
	for _, pt := range res.Points {
		row := []any{pt.ActualTraffic}
		for _, f := range Funcs {
			for _, s := range Strategies {
				row = append(row, pt.MaxLoad[f][s])
			}
		}
		t.Add(row...)
	}
	return t
}

// RunPoint evaluates all strategies at one traffic level.
func (b *Bed) RunPoint(target int) (*FigurePoint, error) {
	demands := b.GenerateDemands(target)
	var actual int64
	for _, d := range demands {
		actual += d.Packets
	}
	pt := &FigurePoint{
		TargetTraffic: int64(target),
		ActualTraffic: actual,
		MaxLoad:       make(map[policy.FuncType]map[enforce.Strategy]int64),
		MinLoad:       make(map[policy.FuncType]map[enforce.Strategy]int64),
		AvgPathCost:   make(map[enforce.Strategy]float64),
	}
	for _, f := range Funcs {
		pt.MaxLoad[f] = make(map[enforce.Strategy]int64)
		pt.MinLoad[f] = make(map[enforce.Strategy]int64)
	}
	for _, s := range Strategies {
		report, sol, err := b.RunStrategy(s, demands)
		if err != nil {
			return nil, fmt.Errorf("experiments: %v at %d pkts: %w", s, target, err)
		}
		for _, f := range Funcs {
			pt.MaxLoad[f][s] = report.MaxLoad(b.Dep, f)
			pt.MinLoad[f][s] = report.MinLoad(b.Dep, f)
		}
		pt.AvgPathCost[s] = report.AvgPathCost()
		if sol != nil {
			pt.Lambda = sol.Lambda
		}
	}
	return pt, nil
}

// TableRow is one row of Table III.
type TableRow struct {
	Func    policy.FuncType
	IsMax   bool
	ByStrat map[enforce.Strategy]int64
}

// RunLoadDistributionTable regenerates Table III: max and min loads per
// middlebox type per strategy at one traffic level (the paper's campus
// table corresponds to the 10M-packet end of Figure 4).
func RunLoadDistributionTable(cfg Config, traffic int) ([]TableRow, error) {
	bed, err := NewBed(cfg)
	if err != nil {
		return nil, err
	}
	pt, err := bed.RunPoint(traffic)
	if err != nil {
		return nil, err
	}
	var rows []TableRow
	for _, f := range Funcs {
		rows = append(rows,
			TableRow{Func: f, IsMax: true, ByStrat: pt.MaxLoad[f]},
			TableRow{Func: f, IsMax: false, ByStrat: pt.MinLoad[f]},
		)
	}
	return rows, nil
}

// LoadTable is Table III (results/table3.csv) in the paper's layout.
func LoadTable(rows []TableRow) *Table {
	t := NewTable("middlebox", "stat", "hp", "rand", "lb")
	for _, r := range rows {
		stat := "min"
		if r.IsMax {
			stat = "max"
		}
		t.Add(r.Func, stat, r.ByStrat[Strategies[0]], r.ByStrat[Strategies[1]], r.ByStrat[Strategies[2]])
	}
	return t
}

// MultiSeedSummary aggregates one traffic point across several
// independent topology/placement/workload draws: mean and range of the
// max load per (function, strategy). The paper evaluates a single draw;
// this answers how placement luck moves the numbers.
type MultiSeedSummary struct {
	Topology string
	Traffic  int
	// Mean/Min/Max of the per-draw maximum loads.
	Mean map[policy.FuncType]map[enforce.Strategy]float64
	Min  map[policy.FuncType]map[enforce.Strategy]int64
	Max  map[policy.FuncType]map[enforce.Strategy]int64
}

// RunMultiSeed evaluates one traffic point across the given seeds.
func RunMultiSeed(cfg Config, traffic int, seeds []int64) (*MultiSeedSummary, error) {
	cfg.fill()
	sum := &MultiSeedSummary{
		Topology: cfg.Topology, Traffic: traffic,
		Mean: make(map[policy.FuncType]map[enforce.Strategy]float64),
		Min:  make(map[policy.FuncType]map[enforce.Strategy]int64),
		Max:  make(map[policy.FuncType]map[enforce.Strategy]int64),
	}
	for _, f := range Funcs {
		sum.Mean[f] = make(map[enforce.Strategy]float64)
		sum.Min[f] = make(map[enforce.Strategy]int64)
		sum.Max[f] = make(map[enforce.Strategy]int64)
	}
	for _, seed := range seeds {
		c := cfg
		c.Seed = seed
		bed, err := NewBed(c)
		if err != nil {
			return nil, err
		}
		pt, err := bed.RunPoint(traffic)
		if err != nil {
			return nil, fmt.Errorf("experiments: seed %d: %w", seed, err)
		}
		for _, f := range Funcs {
			for _, s := range Strategies {
				v := pt.MaxLoad[f][s]
				sum.Mean[f][s] += float64(v) / float64(len(seeds))
				if cur, ok := sum.Min[f][s]; !ok || v < cur {
					sum.Min[f][s] = v
				}
				if v > sum.Max[f][s] {
					sum.Max[f][s] = v
				}
			}
		}
	}
	return sum, nil
}

// Table renders the cross-seed summary.
func (sum *MultiSeedSummary) Table() *Table {
	t := NewTable("middlebox", "strategy", "mean", "min", "max")
	for _, f := range Funcs {
		for _, s := range Strategies {
			t.Add(f, s, fmt.Sprintf("%.0f", sum.Mean[f][s]), sum.Min[f][s], sum.Max[f][s])
		}
	}
	return t
}
