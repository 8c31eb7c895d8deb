package experiments

// Churn benchmark: recompute latency and pushed configuration bytes,
// full-rebuild pipeline vs incremental pipeline, across churn rates.
//
// Both modes replay the SAME randomized mutation sequence (policy
// add/remove/edit, middlebox down/up, demand shifts — the churn mix the
// equivalence property test verifies) against identically seeded beds;
// the only difference is the pipeline's dirty threshold: the "full" mode
// disables scoped solves (DirtyThreshold < 0) and ships every node's
// full configuration each step, the "incremental" mode uses the default
// threshold and ships only the per-node deltas Stage 3 diffs out.
// Pushed bytes are the encoded management-channel envelopes — the same
// payloads the server's push-byte counters meter — so the numbers are
// deterministic for a seed and machine-independent; solve latencies are
// wall clock and reported ungated.
//
// The embedded gate is the byte gate: at the lowest churn rate the
// incremental rollout must cost at most half the bytes of the full
// rollout (in practice it is far below; the bound leaves room for
// demand-shift steps, which dirty everything).

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"time"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/mgmt"
	"sdme/internal/topo"
	"sdme/internal/workload"
)

// ChurnConfig parameterizes RunChurnBench. Zero values select the
// defaults noted on each field.
type ChurnConfig struct {
	Seed             int64
	Topology         string // default "campus"
	PoliciesPerClass int    // default 4
	Steps            int    // churn steps per (rate, mode) run; default 40
	Rates            []int  // churn events per step; default {1, 2, 4, 8}
	DemandTarget     int    // packets per demand population; default 20000
}

func (c *ChurnConfig) defaults() {
	if c.Topology == "" {
		c.Topology = "campus"
	}
	if c.PoliciesPerClass == 0 {
		c.PoliciesPerClass = 4
	}
	if c.Steps == 0 {
		c.Steps = 40
	}
	if len(c.Rates) == 0 {
		c.Rates = []int{1, 2, 4, 8}
	}
	if c.DemandTarget == 0 {
		c.DemandTarget = 20000
	}
}

// ChurnPoint is one (rate, mode) cell of the benchmark grid.
type ChurnPoint struct {
	Rate  int    `json:"rate"`
	Mode  string `json:"mode"` // "full" or "incremental"
	Steps int    `json:"steps"`
	// Recompute wall-clock latency over the run's steps.
	SolveMeanUS float64 `json:"solve_mean_us"`
	SolveP50US  float64 `json:"solve_p50_us"`
	SolveP99US  float64 `json:"solve_p99_us"`
	// PushedBytes is the encoded envelope bytes shipped over the churn
	// steps (the initial full rollout, identical in both modes, is
	// reported separately on the result).
	PushedBytes int64 `json:"pushed_bytes"`
	// ScopedSolves/FullSolves split the recomputes by LP scope.
	ScopedSolves int `json:"scoped_solves"`
	FullSolves   int `json:"full_solves"`
	// AvgDirtyFrac is the mean dirty-instance fraction per recompute.
	AvgDirtyFrac float64 `json:"avg_dirty_frac"`
	// DeltaEntries totals the plan-delta entries (policies, candidate
	// lists, weight vectors touched) Stage 3 diffed out.
	DeltaEntries int64 `json:"delta_entries"`
}

// ChurnGate is the acceptance check embedded in the result: at the
// lowest churn rate, incremental pushed bytes must not exceed MaxRatio
// of the full-rebuild pushed bytes.
type ChurnGate struct {
	Rate     int     `json:"rate"`
	MaxRatio float64 `json:"max_ratio"`
	Measured float64 `json:"measured_ratio"`
	Pass     bool    `json:"pass"`
}

// ChurnResult is the full suite output, serialized to
// results/bench_churn.json.
type ChurnResult struct {
	Seed      int64  `json:"seed"`
	Topology  string `json:"topology"`
	Generated string `json:"generated"`
	// InitialFullBytes is the first rollout's cost (every node's full
	// configuration) — the same in both modes, paid once.
	InitialFullBytes int64        `json:"initial_full_bytes"`
	Points           []ChurnPoint `json:"points"`
	Gate             ChurnGate    `json:"gate"`
}

// RunChurnBench runs the churn grid: for every rate, the same mutation
// sequence through the full-rebuild and the incremental pipeline.
func RunChurnBench(cfg ChurnConfig) (*ChurnResult, error) {
	cfg.defaults()
	res := &ChurnResult{Seed: cfg.Seed, Topology: cfg.Topology}
	for _, rate := range cfg.Rates {
		for _, mode := range []string{"full", "incremental"} {
			pt, initBytes, err := runChurnMode(cfg, rate, mode)
			if err != nil {
				return nil, fmt.Errorf("churn rate %d mode %s: %w", rate, mode, err)
			}
			res.InitialFullBytes = initBytes
			res.Points = append(res.Points, *pt)
		}
	}
	gateRate := cfg.Rates[0]
	res.Gate = ChurnGate{Rate: gateRate, MaxRatio: 0.5}
	var full, incr int64
	for _, p := range res.Points {
		if p.Rate != gateRate {
			continue
		}
		if p.Mode == "full" {
			full = p.PushedBytes
		} else {
			incr = p.PushedBytes
		}
	}
	if full > 0 {
		res.Gate.Measured = float64(incr) / float64(full)
	}
	res.Gate.Pass = full > 0 && res.Gate.Measured <= res.Gate.MaxRatio
	return res, nil
}

// runChurnMode replays one churn sequence through one pipeline mode.
func runChurnMode(cfg ChurnConfig, rate int, mode string) (*ChurnPoint, int64, error) {
	bed, err := NewBed(Config{
		Topology:         cfg.Topology,
		Seed:             cfg.Seed,
		PoliciesPerClass: cfg.PoliciesPerClass,
	})
	if err != nil {
		return nil, 0, err
	}
	ctl := controller.New(bed.Dep, bed.AllPairs, bed.Table, controller.Options{
		Strategy: enforce.LoadBalanced,
		K:        bed.Cfg.K,
	})
	threshold := 0.0 // incremental: the default dirty threshold
	if mode == "full" {
		threshold = -1 // scoped solves disabled: rebuild every step
	}
	pipe := ctl.NewPipeline(controller.PipelineOptions{DirtyThreshold: threshold})
	// The mutation rng depends only on (seed, rate), so both modes see
	// the identical churn sequence.
	mrng := rand.New(rand.NewSource(cfg.Seed*1000 + int64(rate)))

	demands := bed.GenerateDemands(cfg.DemandTarget)
	meas := controller.MeasurementsFromFlows(bed.Dep, bed.Table, demands)
	upd, err := pipe.Recompute(meas)
	if err != nil {
		return nil, 0, err
	}
	initBytes, err := fullPlanBytes(bed.Dep, upd.Plan)
	if err != nil {
		return nil, 0, err
	}

	pt := &ChurnPoint{Rate: rate, Mode: mode, Steps: cfg.Steps}
	down := make(map[topo.NodeID]bool)
	var lats []float64
	var dirtySum float64
	for step := 0; step < cfg.Steps; step++ {
		for ev := 0; ev < rate; ev++ {
			if err := churnMutate(bed, ctl, pipe, mrng, down, &demands, cfg.DemandTarget); err != nil {
				return nil, 0, err
			}
		}
		meas = controller.MeasurementsFromFlows(bed.Dep, bed.Table, demands)
		t0 := time.Now() //vet:ignore simdeterminism -- solve latency is a wall-clock host measurement, reported ungated; the byte gate is clock-free
		upd, err = pipe.Recompute(meas)
		if err != nil {
			return nil, 0, err
		}
		lats = append(lats, float64(time.Since(t0).Microseconds())) //vet:ignore simdeterminism -- see t0: ungated wall-clock latency only

		if upd.Stats.Solved {
			if upd.Stats.FullSolve {
				pt.FullSolves++
			} else {
				pt.ScopedSolves++
			}
		}
		if upd.Stats.Instances > 0 {
			dirtySum += float64(upd.Stats.Dirty) / float64(upd.Stats.Instances)
		}
		pt.DeltaEntries += int64(upd.Stats.Delta.Total())

		var stepBytes int64
		if mode == "full" {
			stepBytes, err = fullPlanBytes(bed.Dep, upd.Plan)
		} else {
			stepBytes, err = deltaBytes(upd.Deltas)
		}
		if err != nil {
			return nil, 0, err
		}
		pt.PushedBytes += stepBytes
	}
	sort.Float64s(lats)
	pt.SolveMeanUS = mean(lats)
	pt.SolveP50US = percentile(lats, 50)
	pt.SolveP99US = percentile(lats, 99)
	pt.AvgDirtyFrac = dirtySum / float64(cfg.Steps)
	return pt, initBytes, nil
}

// churnMutate applies one random mutation — the same mix as the
// equivalence property test. Inapplicable draws fall back to a demand
// shift, so every call mutates something.
func churnMutate(bed *Bed, ctl *controller.Controller, pipe *controller.Pipeline,
	rng *rand.Rand, down map[topo.NodeID]bool, demands *[]enforce.FlowDemand, target int) error {
	classes := []workload.Class{workload.ManyToOne, workload.OneToMany, workload.OneToOne}
	for attempt := 0; attempt < 10; attempt++ {
		switch rng.Intn(6) {
		case 0: // remove a policy
			all := bed.Table.All()
			if len(all) <= 3 {
				continue
			}
			p := all[rng.Intn(len(all))]
			bed.Table.Remove(p.ID)
			pipe.PolicyChanged(p.ID)
			return nil
		case 1: // add a policy (clone of a survivor, fresh ID and priority)
			all := bed.Table.All()
			p := all[rng.Intn(len(all))]
			np := bed.Table.Add(p.Desc, p.Actions)
			pipe.PolicyChanged(np.ID)
			return nil
		case 2: // edit a policy's action chain in place
			all := bed.Table.All()
			p := all[rng.Intn(len(all))]
			acts := classes[rng.Intn(len(classes))].Actions()
			bed.Table.Update(p.ID, p.Desc, acts)
			pipe.PolicyChanged(p.ID)
			return nil
		case 3: // fail a middlebox, keeping every function enforceable
			id, ok := churnFailableMB(bed.Dep, down, rng)
			if !ok {
				continue
			}
			if err := ctl.MarkFailed(id, true); err != nil {
				return err
			}
			down[id] = true
			pipe.NodeChanged(id)
			return nil
		case 4: // recover a failed middlebox
			if len(down) == 0 {
				continue
			}
			for _, id := range bed.Dep.MBNodes {
				if down[id] {
					if err := ctl.MarkFailed(id, false); err != nil {
						return err
					}
					delete(down, id)
					pipe.NodeChanged(id)
					return nil
				}
			}
		case 5: // measurement shift: fresh flow population
			*demands = bed.GenerateDemands(target)
			return nil
		}
	}
	*demands = bed.GenerateDemands(target)
	return nil
}

// churnFailableMB picks a live middlebox whose failure leaves every
// function it provides with at least one other live provider.
func churnFailableMB(dep *enforce.Deployment, down map[topo.NodeID]bool, rng *rand.Rand) (topo.NodeID, bool) {
	var eligible []topo.NodeID
	for _, id := range dep.MBNodes {
		if down[id] {
			continue
		}
		ok := true
		for _, f := range dep.FuncsOf(id) {
			live := 0
			for _, mb := range dep.Providers(f) {
				if !down[mb] && mb != id {
					live++
				}
			}
			if live == 0 {
				ok = false
				break
			}
		}
		if ok {
			eligible = append(eligible, id)
		}
	}
	if len(eligible) == 0 {
		return 0, false
	}
	return eligible[rng.Intn(len(eligible))], true
}

// fullPlanBytes is what a non-incremental rollout ships: every node's
// full configuration, as encoded management-channel envelopes.
func fullPlanBytes(dep *enforce.Deployment, plan *controller.Plan) (int64, error) {
	var total int64
	nodes := append(append([]topo.NodeID(nil), dep.ProxyNodes...), dep.MBNodes...)
	for _, id := range nodes {
		cfg := enforce.Config{
			Candidates: plan.Candidates[id],
			Policies:   plan.NodePolicies[id],
			Strategy:   enforce.LoadBalanced,
		}
		if w := plan.Weights[id]; len(w) > 0 {
			cfg.Weights = w
		}
		buf, err := mgmt.EncodeEnvelope(mgmt.TypeConfig, mgmt.ConfigToDTO(0, cfg))
		if err != nil {
			return 0, err
		}
		total += int64(len(buf))
	}
	return total, nil
}

// deltaBytes is what the incremental rollout ships: only the touched
// nodes' deltas.
func deltaBytes(deltas map[topo.NodeID]enforce.ConfigDelta) (int64, error) {
	var total int64
	for _, d := range deltas {
		buf, err := mgmt.EncodeEnvelope(mgmt.TypePrepareDelta, mgmt.DeltaToDTO(0, d))
		if err != nil {
			return 0, err
		}
		total += int64(len(buf))
	}
	return total, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func percentile(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := (len(sorted) - 1) * p / 100
	return sorted[idx]
}

// WriteChurnJSON serializes the result (indented, trailing newline) —
// the schema consumed by CI's churn-smoke job.
func WriteChurnJSON(w io.Writer, res *ChurnResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}

// ChurnMarkdown renders the grid for EXPERIMENTS.generated.md.
func ChurnMarkdown(res *ChurnResult) string {
	var b strings.Builder
	b.WriteString("| rate | mode | solve mean µs | p50 µs | p99 µs | pushed bytes | scoped | full | avg dirty |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|---|\n")
	for _, p := range res.Points {
		fmt.Fprintf(&b, "| %d | %s | %.0f | %.0f | %.0f | %d | %d | %d | %.2f |\n",
			p.Rate, p.Mode, p.SolveMeanUS, p.SolveP50US, p.SolveP99US,
			p.PushedBytes, p.ScopedSolves, p.FullSolves, p.AvgDirtyFrac)
	}
	fmt.Fprintf(&b, "\nInitial full rollout: %d bytes. Gate: rate-%d incremental/full byte ratio %.3f (need ≤ %.2f) — pass=%v\n",
		res.InitialFullBytes, res.Gate.Rate, res.Gate.Measured, res.Gate.MaxRatio, res.Gate.Pass)
	return b.String()
}
