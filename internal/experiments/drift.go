package experiments

import (
	"fmt"
	"math/rand"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/policy"
	"sdme/internal/workload"
)

// Drift experiment: §III-C says proxies report measurements periodically
// and the controller re-solves. This experiment makes the case for WHY:
// traffic shifts over time, and weights optimized for epoch 1 can be
// badly wrong for epoch N. We generate a sequence of epochs whose
// per-policy volumes drift (a rotating hot subnet), then compare the
// realized max IDS load when the controller rebalances every epoch
// versus solving once and never again.

// DriftEpoch is one epoch's outcome under both policies.
type DriftEpoch struct {
	Epoch int
	// Hot is the subnet carrying the epoch's traffic surge.
	Hot int
	// MaxStale / MaxRebalanced are the realized maximum loads over ALL
	// middleboxes (the quantity λ minimizes) with epoch-0 weights frozen
	// vs. re-solved weights.
	MaxStale, MaxRebalanced int64
	// Ideal is the epoch's total IDS packets / |IDS| floor (IDS carries
	// every flow, so it is the binding type at uniform capacities).
	Ideal float64
}

// RunDriftExperiment runs `epochs` traffic epochs of ~target packets
// each. Each epoch concentrates an extra surge (x3 volume) on a rotating
// source subnet. Returns per-epoch outcomes.
func RunDriftExperiment(cfg Config, target, epochs int) ([]DriftEpoch, error) {
	bed, err := NewBed(cfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1000))

	mkEpoch := func(hot int) []enforce.FlowDemand {
		wcfg := workload.GenConfig{Subnets: bed.Dep.NumSubnets(), PoliciesPerClass: bed.Cfg.PoliciesPerClass}
		flows := workload.GenerateFlows(wcfg, bed.Classed, target, rng)
		out := make([]enforce.FlowDemand, 0, len(flows))
		for _, f := range flows {
			d := enforce.FlowDemand{Tuple: f.Tuple, Packets: int64(f.Packets)}
			if f.SrcSubnet == hot {
				d.Packets *= 3 // the surge
			}
			out = append(out, d)
		}
		return out
	}

	// Each side is one control loop: a plane (full re-solves, the §III-C
	// periodic rebalance) and the simulated nodes its plans roll out to.
	type loop struct {
		Plane
		*SimSubstrate
	}
	newLoop := func() (loop, error) {
		ctl := controller.New(bed.Dep, bed.AllPairs, bed.Table, controller.Options{
			Strategy: enforce.LoadBalanced, K: bed.Cfg.K, HashSeed: uint64(cfg.Seed),
		})
		pipe, nodes, _, err := Deploy(ctl, controller.PipelineOptions{DirtyThreshold: -1}, nil)
		if err != nil {
			return loop{}, err
		}
		return loop{Plane{ctl, pipe}, NewSim(Site{Graph: bed.Graph, Dep: bed.Dep, Nodes: nodes})}, nil
	}
	stale, err := newLoop()
	if err != nil {
		return nil, err
	}
	rebal, err := newLoop()
	if err != nil {
		return nil, err
	}

	var out []DriftEpoch
	for e := 0; e < epochs; e++ {
		hot := 1 + e%bed.Dep.NumSubnets()
		demands := mkEpoch(hot)
		meas := controller.MeasurementsFromFlows(bed.Dep, bed.Table, demands)

		if e == 0 {
			// Both controllers see epoch 0 and solve once.
			if _, err := stale.Rebalance(stale.Plane, meas); err != nil {
				return nil, err
			}
		}
		// The rebalancing controller re-solves every epoch (§III-C's
		// periodic loop); the stale one keeps epoch-0 weights forever.
		if _, err := rebal.Rebalance(rebal.Plane, meas); err != nil {
			return nil, err
		}

		staleReport, err := enforce.EvaluateFlows(stale.Nodes, bed.Dep, bed.AllPairs, demands)
		if err != nil {
			return nil, err
		}
		rebalReport, err := enforce.EvaluateFlows(rebal.Nodes, bed.Dep, bed.AllPairs, demands)
		if err != nil {
			return nil, err
		}
		var idsTotal int64
		for _, l := range rebalReport.LoadsOf(bed.Dep, policy.FuncIDS) {
			idsTotal += l
		}
		globalMax := func(r *enforce.LoadReport) int64 {
			sl := r.SortedLoads()
			if len(sl) == 0 {
				return 0
			}
			return sl[0].Load
		}
		out = append(out, DriftEpoch{
			Epoch:         e,
			Hot:           hot,
			MaxStale:      globalMax(staleReport),
			MaxRebalanced: globalMax(rebalReport),
			Ideal:         float64(idsTotal) / float64(len(bed.Dep.Providers(policy.FuncIDS))),
		})
	}
	return out, nil
}

// DriftTable renders the drift experiment.
func DriftTable(rows []DriftEpoch) *Table {
	t := NewTable("epoch", "hot subnet", "max load (stale weights)", "max load (rebalanced)", "IDS floor")
	for _, r := range rows {
		t.Add(r.Epoch, r.Hot, r.MaxStale, r.MaxRebalanced, fmt.Sprintf("%.0f", r.Ideal))
	}
	return t
}
