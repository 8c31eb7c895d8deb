package controller_test

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/netaddr"
	"sdme/internal/policy"
	"sdme/internal/verify"
)

// TestDeployResumesTheJournaledPlan: a controller restarted over its
// journal starts from the plan it last journaled. Deploy solves nothing
// (there is no update), journals nothing, and builds nodes whose export is
// the one before the restart.
func TestDeployResumesTheJournaledPlan(t *testing.T) {
	b := newBed(t, 69, webPolicy)
	opts := controller.Options{
		Strategy: enforce.LoadBalanced,
		K:        map[policy.FuncType]int{policy.FuncFW: 2, policy.FuncIDS: 2},
	}
	path := journalPath(t)
	meas := controller.Measurements{{PolicyID: b.tbl.All()[0].ID, SrcSubnet: 1, DstSubnet: 2}: 500}

	ctl := controller.New(b.dep, b.ap, b.tbl, opts)
	if _, err := ctl.AttachJournal(path); err != nil {
		t.Fatal(err)
	}
	_, nodes, _ := deploy(t, ctl, meas)
	want := exportBytes(t, ctl, nodes)
	if err := ctl.Journal().Close(); err != nil {
		t.Fatal(err)
	}

	restarted := controller.New(b.dep, b.ap, b.tbl, opts)
	st, err := restarted.AttachJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Journal().Close() //nolint:errcheck // test teardown
	if len(st.Weights) == 0 {
		t.Fatal("the journal holds no solved plan; the test proves nothing")
	}
	records := restarted.Journal().Records()
	pipe, nodes, upd, err := restarted.Deploy(controller.PipelineOptions{}, meas)
	if err != nil {
		t.Fatal(err)
	}
	if upd != nil {
		t.Fatalf("Deploy recomputed a journaled plan: %+v", upd.Stats)
	}
	if p := pipe.Plan(); p.Lambda != st.Lambda || !reflect.DeepEqual(p.Weights, st.Weights) {
		t.Errorf("the pipeline starts from λ=%v, not the journaled plan's λ=%v and weights", p.Lambda, st.Lambda)
	}
	if got := restarted.Journal().Records(); got != records {
		t.Errorf("Deploy appended %d journal records", got-records)
	}
	if got := exportBytes(t, restarted, nodes); !bytes.Equal(got, want) {
		t.Errorf("the resumed export differs from the one before the restart (%d vs %d bytes)", len(got), len(want))
	}
}

// TestRecomputeChecksEveryPlan: with Options.Verify set, Recompute checks
// the whole plan it is about to return on every path one can take (no LP,
// carried through, a scoped or a full solve) and refuses a plan with
// violations before it journals anything. A refused Recompute leaves the
// pipeline as it was: over the repaired candidate cache, the same
// Recompute then takes the path in question. The corruption is an IDS
// list, while the scoped case re-solves only a firewall-only policy: a
// check scoped to the re-solved policies would let it through.
func TestRecomputeChecksEveryPlan(t *testing.T) {
	b := newBed(t, 68, func(tbl *policy.Table) {
		webPolicy(tbl)
		d := policy.NewDescriptor()
		d.DstPort = netaddr.SinglePort(443)
		tbl.Add(d, policy.ActionList{policy.FuncFW})
	})
	web, tls := b.tbl.All()[0].ID, b.tbl.All()[1].ID
	meas := controller.Measurements{
		{PolicyID: web, SrcSubnet: 1, DstSubnet: 2}: 500,
		{PolicyID: tls, SrcSubnet: 2, DstSubnet: 3}: 300,
	}
	first := func(t *testing.T, pipe *controller.Pipeline) {
		t.Helper()
		if _, err := pipe.Recompute(meas); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name     string
		strategy enforce.Strategy
		before   func(t *testing.T, pipe *controller.Pipeline)
		took     func(s controller.PlanStats) bool
	}{
		{"no LP", enforce.HotPotato, nil,
			func(s controller.PlanStats) bool { return !s.Solved }},
		{"full solve", enforce.LoadBalanced, nil,
			func(s controller.PlanStats) bool { return s.FullSolve }},
		{"carried through", enforce.LoadBalanced, first,
			func(s controller.PlanStats) bool { return !s.Solved && s.Dirty == 0 }},
		{"scoped solve", enforce.LoadBalanced, func(t *testing.T, pipe *controller.Pipeline) {
			first(t, pipe)
			pipe.PolicyChanged(tls)
		}, func(s controller.PlanStats) bool { return s.Solved && !s.FullSolve }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctl := controller.New(b.dep, b.ap, b.tbl, controller.Options{
				Strategy: tc.strategy,
				K:        map[policy.FuncType]int{policy.FuncFW: 2, policy.FuncIDS: 2},
				Verify:   true,
			})
			if _, err := ctl.AttachJournal(journalPath(t)); err != nil {
				t.Fatal(err)
			}
			defer ctl.Journal().Close() //nolint:errcheck // test teardown
			pipe := ctl.NewPipeline(controller.PipelineOptions{})
			if tc.before != nil {
				tc.before(t, pipe)
			}
			// Swapping the proxy's two IDS candidates in the controller's
			// own cache breaks hp-optimality (closest first).
			proxy, _ := b.dep.ProxyFor(1)
			ids := ctl.CandidatesOf(proxy)[policy.FuncIDS]
			if len(ids) != 2 {
				t.Fatalf("proxy lists %d IDS candidates, want 2", len(ids))
			}
			swap := func() { ids[0], ids[1] = ids[1], ids[0] }

			swap()
			records := ctl.Journal().Records()
			var verr *verify.Error
			if _, err := pipe.Recompute(meas); !errors.As(err, &verr) {
				t.Fatalf("Recompute over a corrupted candidate cache: %v, want a *verify.Error", err)
			}
			if got := ctl.Journal().Records(); got != records {
				t.Errorf("the refused Recompute appended %d journal records", got-records)
			}

			swap()
			upd, err := pipe.Recompute(meas)
			if err != nil {
				t.Fatalf("after the repair: %v", err)
			}
			if !tc.took(upd.Stats) {
				t.Errorf("after the repair Recompute took another path: %+v", upd.Stats)
			}
		})
	}
}
