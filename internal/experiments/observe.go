package experiments

import (
	"fmt"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/metrics"
	"sdme/internal/netaddr"
	"sdme/internal/policy"
	"sdme/internal/sim"
	"sdme/internal/topo"
)

// ObserveConfig parameterizes one observed simulation run: packets are
// actually pushed through the sim dataplane with the metrics registry
// and the runtime packet tracer attached, and every traced flow's
// runtime path is compared against the static plan (enforce.TraceFlow).
type ObserveConfig struct {
	// Strategy selects the next-hop selector under test.
	Strategy enforce.Strategy
	// Flows is how many distinct enforced flows to inject (default 50).
	Flows int
	// PacketsPerFlow is the packet count per flow (default 1 — with one
	// packet the HopProcess sequence is exactly the chain, so the
	// conformance predicate is SamePath; more packets interleave).
	PacketsPerFlow int
	// TraceOneIn is the tracer sampling rate (default 1: every flow).
	TraceOneIn uint64
	// SnapshotEveryUS > 0 takes periodic virtual-time registry snapshots.
	SnapshotEveryUS int64
	// SnapshotUntilUS bounds the snapshot schedule (default 2s virtual).
	SnapshotUntilUS int64
	// LabelSwitching enables §III-E during the run.
	LabelSwitching bool
}

func (c *ObserveConfig) fill() {
	if c.Flows == 0 {
		c.Flows = 50
	}
	if c.PacketsPerFlow == 0 {
		c.PacketsPerFlow = 1
	}
	if c.TraceOneIn == 0 {
		c.TraceOneIn = 1
	}
	if c.SnapshotUntilUS == 0 {
		c.SnapshotUntilUS = 2_000_000
	}
}

// TraceMismatch is one plan/runtime divergence found by an observed run.
type TraceMismatch struct {
	Flow    netaddr.FiveTuple
	Planned *enforce.Trace
	Runtime *enforce.Trace
}

func (m TraceMismatch) String() string {
	return fmt.Sprintf("flow %v: planned %d hops %v, runtime %d hops",
		m.Flow, len(m.Planned.Hops), m.Planned.Hops, len(m.Runtime.Hops))
}

// ObservedRun is the outcome of RunObserved.
type ObservedRun struct {
	Network  *sim.Network
	Registry *metrics.Registry
	Tracer   *enforce.RuntimeTracer
	Nodes    map[topo.NodeID]*enforce.Node
	// Flows are the injected enforced flows, in injection order.
	Flows []netaddr.FiveTuple
	// Planned maps each flow to its static plan trace.
	Planned map[netaddr.FiveTuple]*enforce.Trace
	// Mismatches lists flows whose runtime trace diverged from the plan
	// (empty on a conforming run).
	Mismatches []TraceMismatch
	// Lambda is the LB optimum when Strategy was LoadBalanced.
	Lambda float64
}

// enforcedFlows draws flows from the bed's workload generator and keeps
// those with a non-permit chain free of WP. Web-proxy chains are
// excluded by design: a cache hit legitimately terminates the packet at
// the proxy, so the runtime path of the SECOND flow to a popular object
// is shorter than the static plan — a feature, not a conformance bug.
func (b *Bed) enforcedFlows(want int) []netaddr.FiveTuple {
	var out []netaddr.FiveTuple
	seen := make(map[netaddr.FiveTuple]bool)
	for tries := 0; len(out) < want && tries < 40; tries++ {
		for _, d := range b.GenerateDemands(want * 2000) {
			ft := d.Tuple
			if seen[ft] {
				continue
			}
			seen[ft] = true
			p := b.Table.Match(ft)
			if p == nil || p.Actions.IsPermit() {
				continue
			}
			hasWP := false
			for _, f := range p.Actions {
				if f == policy.FuncWP {
					hasWP = true
					break
				}
			}
			if hasWP {
				continue
			}
			out = append(out, ft)
			if len(out) == want {
				break
			}
		}
	}
	return out
}

// RunObserved builds the bed's simulation with the full observability
// layer attached, injects enforced flows, and differentially checks
// every sampled runtime trace against the static plan.
func (b *Bed) RunObserved(cfg ObserveConfig) (*ObservedRun, error) {
	cfg.fill()
	ctl := controller.New(b.Dep, b.AllPairs, b.Table, controller.Options{
		Strategy:       cfg.Strategy,
		K:              b.Cfg.K,
		HashSeed:       uint64(b.Cfg.Seed)*2654435761 + uint64(cfg.Strategy),
		LabelSwitching: cfg.LabelSwitching,
	})
	pipe, nodes, _, err := Deploy(ctl, controller.PipelineOptions{}, nil)
	if err != nil {
		return nil, err
	}

	sub := NewSim(Site{Graph: b.Graph, Dep: b.Dep, Nodes: nodes})
	nw := sub.Network

	reg := nw.NewRegistry()
	nw.AttachMetrics(reg)
	ctl.SetMetrics(reg, nw.Engine.Now)

	run := &ObservedRun{
		Network:  nw,
		Registry: reg,
		Nodes:    nodes,
		Planned:  make(map[netaddr.FiveTuple]*enforce.Trace),
	}

	run.Flows = b.enforcedFlows(cfg.Flows)
	if len(run.Flows) < cfg.Flows {
		return nil, fmt.Errorf("experiments: only %d of %d enforced flows available", len(run.Flows), cfg.Flows)
	}

	// LB needs a measurement matrix; derive it from the injected flows so
	// the installed weights describe exactly the traffic that will run.
	if cfg.Strategy == enforce.LoadBalanced {
		demands := make([]enforce.FlowDemand, len(run.Flows))
		for i, ft := range run.Flows {
			demands[i] = enforce.FlowDemand{Tuple: ft, Packets: int64(cfg.PacketsPerFlow)}
		}
		meas := controller.MeasurementsFromFlows(b.Dep, b.Table, demands)
		upd, err := sub.Rebalance(Plane{Ctl: ctl, Pipe: pipe}, meas)
		if err != nil {
			return nil, err
		}
		run.Lambda = upd.Plan.Lambda
	}

	capacity := cfg.Flows*cfg.PacketsPerFlow*8 + 64
	run.Tracer = enforce.NewRuntimeTracer(capacity, cfg.TraceOneIn, uint64(b.Cfg.Seed))
	nw.SetTracer(run.Tracer)
	if cfg.SnapshotEveryUS > 0 {
		nw.SnapshotEvery(cfg.SnapshotEveryUS, cfg.SnapshotUntilUS)
	}

	// The static plan, computed with the exact selector state the packets
	// will run under.
	for _, ft := range run.Flows {
		tr, err := enforce.TraceFlow(nodes, b.Dep, b.AllPairs, ft)
		if err != nil {
			return nil, fmt.Errorf("experiments: plan trace %v: %w", ft, err)
		}
		run.Planned[ft] = tr
	}

	for i, ft := range run.Flows {
		// Staggered starts keep per-flow packet trains ordered without
		// serializing the whole run.
		if err := nw.InjectFlow(ft, cfg.PacketsPerFlow, 64, int64(i)*10, 100); err != nil {
			return nil, err
		}
	}
	nw.Run(0)

	for _, ft := range run.Flows {
		if !run.Tracer.Sampled(ft) {
			continue
		}
		rt := run.Tracer.RuntimeTrace(ft)
		planned := run.Planned[ft]
		want := &enforce.Trace{Flow: ft}
		for rep := 0; rep < cfg.PacketsPerFlow; rep++ {
			want.Hops = append(want.Hops, planned.Hops...)
		}
		if !want.SamePath(rt) {
			run.Mismatches = append(run.Mismatches, TraceMismatch{Flow: ft, Planned: planned, Runtime: rt})
		}
	}
	return run, nil
}
