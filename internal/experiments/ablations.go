package experiments

import (
	"fmt"
	"time"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/policy"
	"sdme/internal/topo"
)

// KAblationPoint reports LB quality for one candidate-set size.
type KAblationPoint struct {
	K int
	// Lambda is the LP optimum (max expected load, uniform capacities).
	Lambda float64
	// RealizedMaxIDS is the realized maximum IDS load after hashing.
	RealizedMaxIDS int64
	// AvgPathCost captures the locality cost of larger k: farther
	// candidates admit better balance but longer detours.
	AvgPathCost float64
}

// RunCandidateKAblation sweeps the candidate-set size k (applied to every
// function, capped by provider count) and reports the balance/locality
// trade-off — the design choice DESIGN.md calls out (k=1 is hot-potato).
func RunCandidateKAblation(cfg Config, traffic int, ks []int) ([]KAblationPoint, error) {
	bed, err := NewBed(cfg)
	if err != nil {
		return nil, err
	}
	demands := bed.GenerateDemands(traffic)
	meas := controller.MeasurementsFromFlows(bed.Dep, bed.Table, demands)

	var out []KAblationPoint
	for _, k := range ks {
		kmap := make(map[policy.FuncType]int, len(Funcs))
		for _, f := range Funcs {
			kmap[f] = k
		}
		ctl := controller.New(bed.Dep, bed.AllPairs, bed.Table, controller.Options{
			Strategy: enforce.LoadBalanced, K: kmap, HashSeed: uint64(cfg.Seed) + uint64(k),
		})
		_, nodes, upd, err := Deploy(ctl, controller.PipelineOptions{}, meas)
		if err != nil {
			return nil, fmt.Errorf("experiments: k=%d: %w", k, err)
		}
		report, err := enforce.EvaluateFlows(nodes, bed.Dep, bed.AllPairs, demands)
		if err != nil {
			return nil, err
		}
		out = append(out, KAblationPoint{
			K:              k,
			Lambda:         upd.Plan.Lambda,
			RealizedMaxIDS: report.MaxLoad(bed.Dep, policy.FuncIDS),
			AvgPathCost:    report.AvgPathCost(),
		})
	}
	return out, nil
}

// KAblationTable renders the candidate-set-size sweep.
func KAblationTable(points []KAblationPoint) *Table {
	t := NewTable("k", "λ (max expected load)", "realized max IDS load", "avg path cost")
	for _, p := range points {
		t.Add(p.K, fmt.Sprintf("%.0f", p.Lambda), p.RealizedMaxIDS, fmt.Sprintf("%.2f", p.AvgPathCost))
	}
	return t
}

// StateAblation reports the effect of the §III-D flow table and §III-E
// label switching, measured packet-by-packet in the simulator.
type StateAblation struct {
	LabelSwitching bool
	// PacketsProcessed is total middlebox processing events.
	PacketsProcessed int64
	// Classifications is how many multi-field lookups ran; the flow
	// table makes this ≈ flows × chain length instead of packets ×
	// chain length.
	Classifications int64
	// TunnelTx / LabelTx split the transmissions by encapsulation.
	TunnelTx, LabelTx int64
	// EncapOverheadBytes is the extra wire bytes added by outer headers.
	EncapOverheadBytes int64
	// FragmentsCreated counts MTU-driven fragment packets.
	FragmentsCreated int64
	// ControlMessages counts §III-E confirmations.
	ControlMessages int64
	Delivered       int64
}

// RunStateAblation runs a packet-level simulation of `flows` flows ×
// `packetsPerFlow` packets of `packetBytes` bytes on a small campus, with
// label switching on or off, and reports the state-machinery effects.
// Packet sizes near the MTU expose encapsulation-induced fragmentation.
func RunStateAblation(seed int64, flows, packetsPerFlow, packetBytes int, labelSwitching bool) (*StateAblation, error) {
	cfg := Config{Topology: "campus", Seed: seed, PoliciesPerClass: 2, TrafficPoints: []int{1}}
	bed, err := NewBed(cfg)
	if err != nil {
		return nil, err
	}
	ctl := controller.New(bed.Dep, bed.AllPairs, bed.Table, controller.Options{
		Strategy: enforce.HotPotato, K: bed.Cfg.K,
		LabelSwitching: labelSwitching, HashSeed: uint64(seed),
	})
	_, nodes, _, err := Deploy(ctl, controller.PipelineOptions{}, nil)
	if err != nil {
		return nil, err
	}
	nw := NewSim(Site{Graph: bed.Graph, Dep: bed.Dep, Nodes: nodes}).Network

	demands := bed.GenerateDemands(flows) // ≈1 packet per flow target; resize below
	if len(demands) > flows {
		demands = demands[:flows]
	}
	for i, d := range demands {
		// Space flows and packets so control messages can return between
		// packets of a flow.
		if err := nw.InjectFlow(d.Tuple, packetsPerFlow, packetBytes, int64(i)*37, 5000); err != nil {
			return nil, err
		}
	}
	nw.Run(0)

	out := &StateAblation{LabelSwitching: labelSwitching}
	s := nw.Stats()
	out.FragmentsCreated = s.FragmentsCreated
	out.ControlMessages = s.ControlMessages
	out.Delivered = s.Delivered
	for _, n := range nodes {
		out.PacketsProcessed += n.Counters.Load
		out.Classifications += n.Counters.Classified
		out.TunnelTx += n.Counters.TunnelTx
		out.LabelTx += n.Counters.LabelTx
	}
	out.EncapOverheadBytes = out.TunnelTx * 20
	return out, nil
}

// StateAblationTable renders the flow-table / label-switching ablation
// pair.
func StateAblationTable(off, on *StateAblation) *Table {
	t := NewTable("metric", "tunneling only", "with label switching")
	t.Add("middlebox packets processed", off.PacketsProcessed, on.PacketsProcessed)
	t.Add("multi-field classifications", off.Classifications, on.Classifications)
	t.Add("IP-over-IP transmissions", off.TunnelTx, on.TunnelTx)
	t.Add("label-switched transmissions", off.LabelTx, on.LabelTx)
	t.Add("encapsulation overhead (bytes)", off.EncapOverheadBytes, on.EncapOverheadBytes)
	t.Add("fragments created", off.FragmentsCreated, on.FragmentsCreated)
	t.Add("control messages", off.ControlMessages, on.ControlMessages)
	t.Add("delivered", off.Delivered, on.Delivered)
	return t
}

// FormulationComparison reports Eq. (1) vs Eq. (2) on one instance: the
// size of each program and what solving it took, both objectives of the
// lexicographic solve included.
type FormulationComparison struct {
	AggLambda, FineLambda           float64
	AggVars, FineVars               int
	AggConstraints, FineConstraints int
	AggIterations, FineIterations   int
	AggSolve, FineSolve             time.Duration
}

// RunEq1VsEq2 solves both LP formulations on a reduced topology and
// reports size and optimum — the paper's motivation for Eq. (2) is
// exactly this variable-count reduction (§III-C).
func RunEq1VsEq2(cfg Config, traffic int) (*FormulationComparison, error) {
	bed, err := NewBed(cfg)
	if err != nil {
		return nil, err
	}
	demands := bed.GenerateDemands(traffic)
	meas := controller.MeasurementsFromFlows(bed.Dep, bed.Table, demands)
	ctl := controller.New(bed.Dep, bed.AllPairs, bed.Table, controller.Options{
		Strategy: enforce.LoadBalanced, K: bed.Cfg.K, HashSeed: uint64(cfg.Seed),
	})
	solve := func(fine bool) (*controller.LBSolution, error) {
		upd, err := ctl.NewPipeline(controller.PipelineOptions{Fine: fine}).Recompute(meas)
		if err != nil {
			return nil, err
		}
		return upd.Solution, nil
	}
	agg, err := solve(false)
	if err != nil {
		return nil, err
	}
	fine, err := solve(true)
	if err != nil {
		return nil, err
	}
	return &FormulationComparison{
		AggLambda: agg.Lambda, FineLambda: fine.Lambda,
		AggVars: agg.Vars, FineVars: fine.Vars,
		AggConstraints: agg.Constraints, FineConstraints: fine.Constraints,
		AggIterations: agg.Iterations, FineIterations: fine.Iterations,
		AggSolve: agg.SolveTime, FineSolve: fine.SolveTime,
	}, nil
}

// Table renders the Eq. (1) vs Eq. (2) comparison.
func (c *FormulationComparison) Table() *Table {
	t := NewTable("metric", "Eq. (2) aggregated", "Eq. (1) fine-grained")
	t.Add("λ", fmt.Sprintf("%.1f", c.AggLambda), fmt.Sprintf("%.1f", c.FineLambda))
	t.Add("variables", c.AggVars, c.FineVars)
	t.Add("constraints", c.AggConstraints, c.FineConstraints)
	t.Add("simplex iterations", c.AggIterations, c.FineIterations)
	ms := func(d time.Duration) string { return fmt.Sprintf("%.1f", float64(d)/float64(time.Millisecond)) }
	t.Add("solve time (ms, wall)", ms(c.AggSolve), ms(c.FineSolve))
	return t
}

// StretchPoint reports the average per-packet path cost of a strategy
// against the no-enforcement shortest-path baseline.
type StretchPoint struct {
	Strategy enforce.Strategy
	// AvgPathCost is hops per packet including middlebox detours.
	AvgPathCost float64
	// Stretch is AvgPathCost / baseline shortest-path cost.
	Stretch float64
}

// RunPathStretch quantifies the routing detour each enforcement strategy
// imposes: every flow's routed path (source proxy → middlebox chain →
// destination edge) versus the direct shortest path. The paper does not
// evaluate latency; this ablation answers the natural follow-up question
// and exposes the k trade-off from the other side of RunCandidateKAblation.
func RunPathStretch(cfg Config, traffic int) (baselineCost float64, points []StretchPoint, err error) {
	bed, err := NewBed(cfg)
	if err != nil {
		return 0, nil, err
	}
	demands := bed.GenerateDemands(traffic)

	// Baseline: per-packet shortest-path cost with no enforcement.
	var base float64
	var total int64
	for _, d := range demands {
		srcSub := bed.Dep.SubnetIndexOf(d.Tuple.Src)
		proxyID, ok := bed.Dep.ProxyFor(srcSub)
		if !ok {
			continue
		}
		dstEdge := bed.Graph.SubnetOwner(d.Tuple.Dst)
		if dstEdge == topo.InvalidNode {
			continue
		}
		base += float64(d.Packets) * bed.AllPairs.Dist(proxyID, dstEdge)
		total += d.Packets
	}
	if total > 0 {
		base /= float64(total)
	}

	for _, s := range Strategies {
		report, _, rerr := bed.RunStrategy(s, demands)
		if rerr != nil {
			return 0, nil, rerr
		}
		pt := StretchPoint{Strategy: s, AvgPathCost: report.AvgPathCost()}
		if base > 0 {
			pt.Stretch = pt.AvgPathCost / base
		}
		points = append(points, pt)
	}
	return base, points, nil
}

// StretchTable renders the path-stretch ablation, the no-enforcement
// baseline first.
func StretchTable(baseline float64, points []StretchPoint) *Table {
	t := NewTable("strategy", "avg path cost (hops/pkt)", "stretch vs baseline")
	t.Add("none (shortest path)", fmt.Sprintf("%.2f", baseline), "1.00x")
	for _, p := range points {
		t.Add(p.Strategy, fmt.Sprintf("%.2f", p.AvgPathCost), fmt.Sprintf("%.2fx", p.Stretch))
	}
	return t
}

// QueueAblation reports one strategy's latency under finite middlebox
// capacity.
type QueueAblation struct {
	Strategy enforce.Strategy
	// AvgLatencyUS / MaxLatencyUS are end-to-end delivery latencies.
	AvgLatencyUS, MaxLatencyUS float64
	// AvgQueueUS / MaxQueueUS are per-middlebox queueing waits.
	AvgQueueUS, MaxQueueUS float64
	Delivered              int64
}

// RunQueueingAblation gives every middlebox the same finite service rate
// and pushes an identical packet-level workload through HP, Rand and LB.
// Under hot-potato the hottest middlebox saturates and queues explode;
// load balancing keeps every box under its service rate — the latency
// meaning of the paper's min-max-λ objective, measured.
func RunQueueingAblation(seed int64, flows, packetsPerFlow int, ratePPS float64) ([]QueueAblation, error) {
	var out []QueueAblation
	for _, strategy := range Strategies {
		cfg := Config{Topology: "campus", Seed: seed, PoliciesPerClass: 2, TrafficPoints: []int{1}}
		bed, err := NewBed(cfg)
		if err != nil {
			return nil, err
		}
		demands := bed.GenerateDemands(flows)
		if len(demands) > flows {
			demands = demands[:flows]
		}
		ctl := controller.New(bed.Dep, bed.AllPairs, bed.Table, controller.Options{
			Strategy: strategy, K: bed.Cfg.K, HashSeed: uint64(seed),
		})
		// Scale the per-flow demands to packet counts for measurement
		// (only the LB strategy solves over them).
		meas := controller.Measurements{}
		for _, d := range demands {
			p := bed.Table.Match(d.Tuple)
			if p == nil || p.Actions.IsPermit() {
				continue
			}
			meas[enforce.MeasKey{
				PolicyID:  p.ID,
				SrcSubnet: bed.Dep.SubnetIndexOf(d.Tuple.Src),
				DstSubnet: bed.Dep.SubnetIndexOf(d.Tuple.Dst),
			}] += int64(packetsPerFlow)
		}
		_, nodes, _, err := Deploy(ctl, controller.PipelineOptions{}, meas)
		if err != nil {
			return nil, err
		}
		nw := NewSim(Site{Graph: bed.Graph, Dep: bed.Dep, Nodes: nodes}).Network
		for _, id := range bed.Dep.MBNodes {
			nw.SetServiceRate(id, ratePPS)
		}
		for i, d := range demands {
			if err := nw.InjectFlow(d.Tuple, packetsPerFlow, 256, int64(i)*17, 120); err != nil {
				return nil, err
			}
		}
		nw.Run(0)
		s := nw.Stats()
		out = append(out, QueueAblation{
			Strategy:     strategy,
			AvgLatencyUS: s.AvgLatencyUS(),
			MaxLatencyUS: float64(s.LatencyMaxUS),
			AvgQueueUS:   s.AvgQueueDelayUS(),
			MaxQueueUS:   float64(s.QueueDelayMaxUS),
			Delivered:    s.Delivered,
		})
	}
	return out, nil
}

// QueueingTable renders the queueing ablation.
func QueueingTable(points []QueueAblation) *Table {
	t := NewTable("strategy", "avg latency (µs)", "max latency (µs)", "avg queue wait (µs)", "max queue wait (µs)")
	for _, p := range points {
		t.Add(p.Strategy, fmt.Sprintf("%.0f", p.AvgLatencyUS), fmt.Sprintf("%.0f", p.MaxLatencyUS),
			fmt.Sprintf("%.0f", p.AvgQueueUS), fmt.Sprintf("%.0f", p.MaxQueueUS))
	}
	return t
}
