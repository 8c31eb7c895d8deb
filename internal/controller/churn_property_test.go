package controller_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"regexp"
	"testing"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/experiments"
	"sdme/internal/mgmt"
	"sdme/internal/topo"
	"sdme/internal/verify"
	"sdme/internal/workload"
)

// The incremental pipeline's contract is exact equivalence: applying the
// per-node ConfigDeltas of every Recompute on top of the previous
// configuration must land on byte-for-byte the same exported plan as a
// from-scratch rebuild of the new plan. This property test drives long
// randomized churn sequences — policy add/remove/edit, middlebox
// down/up, demand shifts — through the pipeline and checks the contract
// at every single step, both structurally (verify.CheckDeltaEquivalence)
// and on the serialized export bytes. Shards cover the Eq. (2) and
// Eq. (1) formulations and the three dirty-threshold regimes (default
// mixed, always-scoped, always-full). Every shard runs twice: the same
// seed must give deeply equal plans and identical encoded delta bytes at
// every step — scoped solves included, they are bit-reproducible.

// churnShard parameterizes one shard of the property test.
type churnShard struct {
	name      string
	topology  string
	seed      int64
	fine      bool
	threshold float64
	steps     int
	// wantScoped asserts at least one recompute took the scoped-solve
	// path (no full LP), i.e. the incremental machinery was exercised.
	wantScoped bool
}

func TestChurnIncrementalEquivalence(t *testing.T) {
	shards := []churnShard{
		{name: "campus-eq2-default", topology: "campus", seed: 1, fine: false, threshold: 0, steps: 150, wantScoped: true},
		{name: "campus-eq2-scoped", topology: "campus", seed: 2, fine: false, threshold: 2, steps: 150, wantScoped: true},
		{name: "campus-eq1-default", topology: "campus", seed: 3, fine: true, threshold: 0, steps: 100},
		{name: "waxman-eq2-full", topology: "waxman", seed: 4, fine: false, threshold: -1, steps: 100},
	}
	total := 0
	for _, sh := range shards {
		total += sh.steps
	}
	if total < 500 {
		t.Fatalf("shards cover %d churn steps, want >= 500", total)
	}
	for _, sh := range shards {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			t.Parallel()
			if testing.Short() {
				sh.steps /= 5
			}
			a := runChurnShard(t, sh)
			if testing.Short() {
				return // the equivalence run alone; reproducibility needs the second
			}
			b := runChurnShard(t, sh)
			for i := range a {
				if !reflect.DeepEqual(a[i].plan, b[i].plan) {
					t.Fatalf("recompute %d: same seed, different plans", i)
				}
				if !bytes.Equal(a[i].wire, b[i].wire) {
					t.Fatalf("recompute %d: same seed, different encoded delta bytes", i)
				}
			}
		})
	}
}

// churnRecord is what one Recompute of a shard produced: the plan and the
// wire bytes of its deltas, node by node in ID order.
type churnRecord struct {
	plan *controller.Plan
	wire []byte
}

func recordOf(t *testing.T, upd *controller.PlanUpdate) churnRecord {
	t.Helper()
	ids := make([]topo.NodeID, 0, len(upd.Deltas))
	for id := range upd.Deltas {
		ids = append(ids, id)
	}
	var wire []byte
	for _, id := range topo.SortedIDs(ids) {
		buf, err := mgmt.EncodeEnvelope(mgmt.TypePrepareDelta, mgmt.DeltaToDTO(0, upd.Deltas[id]))
		if err != nil {
			t.Fatal(err)
		}
		wire = append(wire, buf...)
	}
	if negativeZero.Match(wire) {
		t.Fatal("an encoded delta carries a -0 weight")
	}
	return churnRecord{plan: upd.Plan, wire: wire}
}

// negativeZero finds a JSON number -0: DiffPlans compares weights with ==,
// under which -0 is 0, so a -0 that reached an encoder would make two plans
// the diff calls equal serialize differently.
var negativeZero = regexp.MustCompile(`[\[,:]-0[,\]}]`)

func runChurnShard(t *testing.T, sh churnShard) []churnRecord {
	bed, err := experiments.NewBed(experiments.Config{
		Topology:         sh.topology,
		Seed:             sh.seed,
		PoliciesPerClass: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctl := controller.New(bed.Dep, bed.AllPairs, bed.Table, controller.Options{
		Strategy: enforce.LoadBalanced,
		K:        bed.Cfg.K,
	})
	pipe := ctl.NewPipeline(controller.PipelineOptions{Fine: sh.fine, DirtyThreshold: sh.threshold})
	rng := rand.New(rand.NewSource(sh.seed * 7919))

	const demandTarget = 4000
	demands := bed.GenerateDemands(demandTarget)
	meas := controller.MeasurementsFromFlows(bed.Dep, bed.Table, demands)
	upd, err := pipe.Recompute(meas)
	if err != nil {
		t.Fatalf("initial recompute: %v", err)
	}
	// A full push is a delta against the empty base.
	if initial, _ := controller.DiffPlans(nil, upd.Plan); !reflect.DeepEqual(upd.Deltas, initial) {
		t.Fatalf("first recompute's deltas are not the diff against the empty plan")
	}
	records := []churnRecord{recordOf(t, upd)}
	live, err := ctl.BuildNodesFromPlan(upd.Plan)
	if err != nil {
		t.Fatalf("initial build: %v", err)
	}

	down := make(map[topo.NodeID]bool)
	scoped := 0
	var deltaBytes, fullBytes int
	for step := 0; step < sh.steps; step++ {
		churnStep(t, bed, ctl, pipe, rng, down, &demands, demandTarget)
		meas = controller.MeasurementsFromFlows(bed.Dep, bed.Table, demands)
		upd, err = pipe.Recompute(meas)
		if err != nil {
			t.Fatalf("step %d: recompute: %v", step, err)
		}
		if upd.Stats.Solved && !upd.Stats.FullSolve {
			scoped++
		}
		records = append(records, recordOf(t, upd))
		deltaBytes += len(records[len(records)-1].wire)
		for id := range upd.Deltas {
			if live[id] == nil {
				t.Fatalf("step %d: delta for unknown node %v", step, id)
			}
		}
		if err := controller.ApplyDeltas(live, upd.Deltas); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}

		rebuilt, err := ctl.BuildNodesFromPlan(upd.Plan)
		if err != nil {
			t.Fatalf("step %d: rebuild: %v", step, err)
		}
		for _, n := range rebuilt {
			buf, err := mgmt.EncodeEnvelope(mgmt.TypeConfig, mgmt.ConfigToDTO(0, n.Config()))
			if err != nil {
				t.Fatal(err)
			}
			fullBytes += len(buf)
		}
		if viol := verify.CheckDeltaEquivalence(configsOf(live), configsOf(rebuilt)); len(viol) > 0 {
			t.Fatalf("step %d: delta-applied configuration diverges from full rebuild (%d violations), first: %v",
				step, len(viol), viol[0])
		}
		a, b := exportBytes(t, ctl, live), exportBytes(t, ctl, rebuilt)
		if !bytes.Equal(a, b) {
			t.Fatalf("step %d: exported plans differ (%d vs %d bytes)", step, len(a), len(b))
		}
		if negativeZero.Match(a) {
			t.Fatalf("step %d: the exported plan carries a -0 weight", step)
		}
	}
	if sh.wantScoped && scoped == 0 {
		t.Fatalf("no recompute took the scoped-solve path in %d steps", sh.steps)
	}
	// Shipping deltas must pay: over the mutation mix — demand shifts, which
	// dirty everything, included — the encoded deltas cost at most half of
	// what re-sending every node's full configuration each step would.
	if 2*deltaBytes > fullBytes {
		t.Fatalf("deltas cost %d bytes over %d steps, more than half the %d bytes of full configurations",
			deltaBytes, sh.steps, fullBytes)
	}
	t.Logf("%d steps, %d scoped recomputes, %d policies, %d failed middleboxes at end; delta/full bytes %.3f",
		sh.steps, scoped, bed.Table.Len(), len(down), float64(deltaBytes)/float64(fullBytes))
	return records
}

// churnStep applies one random mutation to the test bed: a policy edit,
// a middlebox failure/recovery, or a demand shift. Every policy/node
// event is also reported to the pipeline's explicit dirty marks, like a
// real control loop would.
func churnStep(t *testing.T, bed *experiments.Bed, ctl *controller.Controller,
	pipe *controller.Pipeline, rng *rand.Rand, down map[topo.NodeID]bool,
	demands *[]enforce.FlowDemand, target int) {
	t.Helper()
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
			return
		case 1: // add a policy (clone of a survivor, fresh ID and priority)
			all := bed.Table.All()
			p := all[rng.Intn(len(all))]
			np := bed.Table.Add(p.Desc, p.Actions)
			pipe.PolicyChanged(np.ID)
			return
		case 2: // edit a policy's action chain in place
			all := bed.Table.All()
			p := all[rng.Intn(len(all))]
			acts := classes[rng.Intn(len(classes))].Actions()
			bed.Table.Update(p.ID, p.Desc, acts)
			pipe.PolicyChanged(p.ID)
			return
		case 3: // fail a middlebox, keeping every function enforceable
			id, ok := failableMB(bed.Dep, down, rng)
			if !ok {
				continue
			}
			if err := ctl.MarkFailed(id, true); err != nil {
				t.Fatalf("mark %v failed: %v", id, err)
			}
			down[id] = true
			pipe.NodeChanged(id)
			return
		case 4: // recover a failed middlebox
			if len(down) == 0 {
				continue
			}
			for _, id := range bed.Dep.MBNodes {
				if down[id] {
					if err := ctl.MarkFailed(id, false); err != nil {
						t.Fatalf("mark %v recovered: %v", id, err)
					}
					delete(down, id)
					pipe.NodeChanged(id)
					return
				}
			}
		case 5: // measurement shift: fresh flow population
			*demands = bed.GenerateDemands(target)
			return
		}
	}
	// All attempts hit inapplicable ops (e.g. nothing down to recover);
	// fall back to a demand shift, which is always valid.
	*demands = bed.GenerateDemands(target)
}

// failableMB picks a live middlebox whose failure leaves every function
// it provides with at least one other live provider, so the plan stays
// compilable.
func failableMB(dep *enforce.Deployment, down map[topo.NodeID]bool, rng *rand.Rand) (topo.NodeID, bool) {
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

// configsOf snapshots every node's installed configuration.
func configsOf(nodes map[topo.NodeID]*enforce.Node) map[topo.NodeID]enforce.Config {
	out := make(map[topo.NodeID]enforce.Config, len(nodes))
	for id, n := range nodes {
		out[id] = n.Config()
	}
	return out
}

// exportBytes serializes the full network configuration deterministically.
func exportBytes(t *testing.T, ctl *controller.Controller, nodes map[topo.NodeID]*enforce.Node) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ctl.ExportConfig(nodes).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
