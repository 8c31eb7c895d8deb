package controller_test

import (
	"math"
	"testing"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/experiments"
)

// TestLBSolutionProperties checks the invariants every LB solution must
// satisfy, over randomized topologies and workloads:
//
//  1. each installed weight vector is parallel to the node's candidate
//     list M_x^e — it can only name legal candidates;
//  2. weights are non-negative and finite (the solver emits relative
//     flow amounts; the dataplane normalizes by the vector total);
//  3. each vector with routed demand normalizes to a probability
//     distribution — fractions in [0, 1] summing to 1;
//  4. the LP's min-max load never exceeds hot-potato's realized maximum
//     load on the same measurement matrix — HP's all-to-nearest
//     assignment is one feasible point of the program, so the optimum
//     must be at least as good.
func TestLBSolutionProperties(t *testing.T) {
	const eps = 1e-6
	cases := []struct {
		topology string
		seed     int64
		// The fine-grained Eq.(1) program is one conservation system per
		// (src, dst, policy) triple — orders of magnitude more variables —
		// so it runs on a subset of the cases.
		fine bool
	}{
		{"campus", 1, true},
		{"campus", 9, true},
		{"campus", 23, false},
		{"waxman", 4, false},
		{"waxman", 17, false},
	}
	type solver struct {
		name string
		fine bool
	}
	if testing.Short() {
		cases = cases[:1] // one campus seed, both formulations
	}
	for _, tc := range cases {
		solvers := []solver{{"aggregated", false}}
		if tc.fine {
			solvers = append(solvers, solver{"fine", true})
		}
		bed, err := experiments.NewBed(experiments.Config{Topology: tc.topology, Seed: tc.seed, PoliciesPerClass: 2})
		if err != nil {
			t.Fatal(err)
		}
		demands := bed.GenerateDemands(10000)
		meas := controller.MeasurementsFromFlows(bed.Dep, bed.Table, demands)

		// Hot-potato's realized maximum load bounds the LP optimum.
		hpCtl := controller.New(bed.Dep, bed.AllPairs, bed.Table, controller.Options{
			Strategy: enforce.HotPotato, K: bed.Cfg.K,
		})
		_, hpNodes, _ := deploy(t, hpCtl, nil)
		hpReport, err := enforce.EvaluateFlows(hpNodes, bed.Dep, bed.AllPairs, demands)
		if err != nil {
			t.Fatal(err)
		}
		var hpMax int64
		for _, l := range hpReport.Loads {
			if l > hpMax {
				hpMax = l
			}
		}

		for _, sv := range solvers {
			ctl := controller.New(bed.Dep, bed.AllPairs, bed.Table, controller.Options{
				Strategy: enforce.LoadBalanced, K: bed.Cfg.K,
			})
			upd, err := ctl.NewPipeline(controller.PipelineOptions{Fine: sv.fine}).Recompute(meas)
			if err != nil {
				t.Fatalf("%s/%d/%s: %v", tc.topology, tc.seed, sv.name, err)
			}
			sol := upd.Solution
			vectors := 0
			for x, byKey := range sol.Weights {
				cands := ctl.CandidatesOf(x)
				for k, w := range byKey {
					vectors++
					list := cands[k.Func]
					if len(list) == 0 {
						t.Errorf("%s/%d/%s: node %v has weights for %v but no candidates",
							tc.topology, tc.seed, sv.name, x, k.Func)
						continue
					}
					if len(w) != len(list) {
						t.Errorf("%s/%d/%s: node %v key %+v: %d weights for %d candidates",
							tc.topology, tc.seed, sv.name, x, k, len(w), len(list))
						continue
					}
					sum := 0.0
					for i, wi := range w {
						if wi < -eps || math.IsNaN(wi) || math.IsInf(wi, 0) {
							t.Errorf("%s/%d/%s: node %v key %+v: bad weight %g on %v",
								tc.topology, tc.seed, sv.name, x, k, wi, list[i])
						}
						sum += wi
					}
					if sum <= eps {
						// No demand routed through this key; pickWeighted
						// falls back to uniform hashing over candidates.
						continue
					}
					fsum := 0.0
					for _, wi := range w {
						frac := wi / sum
						if frac < -eps || frac > 1+eps {
							t.Errorf("%s/%d/%s: node %v key %+v: split fraction %g outside [0,1]",
								tc.topology, tc.seed, sv.name, x, k, frac)
						}
						fsum += frac
					}
					if math.Abs(fsum-1) > eps {
						t.Errorf("%s/%d/%s: node %v key %+v: split fractions sum to %g, want 1",
							tc.topology, tc.seed, sv.name, x, k, fsum)
					}
				}
			}
			if vectors == 0 {
				t.Fatalf("%s/%d/%s: solution installs no weight vectors", tc.topology, tc.seed, sv.name)
			}
			// Load comparisons get a relative slack: the simplex solution
			// carries O(λ·1e-7) rounding on instances this size.
			slack := eps + sol.Lambda*1e-6
			if sol.Lambda > float64(hpMax)+slack {
				t.Errorf("%s/%d/%s: λ=%g exceeds hot-potato max load %d",
					tc.topology, tc.seed, sv.name, sol.Lambda, hpMax)
			}
			// The LP's own expected loads must be consistent with λ.
			for id, l := range sol.ExpectedLoads {
				if l > sol.Lambda+slack {
					t.Errorf("%s/%d/%s: expected load of %v is %g > λ=%g",
						tc.topology, tc.seed, sv.name, id, l, sol.Lambda)
				}
			}
		}
	}
}
