package experiments

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/faultinject"
	"sdme/internal/mgmt"
	"sdme/internal/topo"
)

// failingRollout is the simulator with a management channel that answers
// every plan update with a scripted error.
type failingRollout struct {
	*SimSubstrate
	err error
}

func (f failingRollout) Rollout(p Plane, upd *controller.PlanUpdate) error {
	if upd == nil {
		return nil
	}
	return f.err
}

func simFailing(err error) Backend {
	on := Sim
	on.newSubstrate = func(site Site, _ Scenario, _ string) (Substrate, error) {
		return failingRollout{NewSim(site), err}, nil
	}
	return on
}

// TestChaosRepairAbsorbsOnlyExpectedOutcomes: a repair absorbs a function
// left without a live provider, a health report about a node that carries
// no function, an aborted prepare and a decided commit straggler — and
// nothing else. An unexpected error fails the run on either backend
// instead of vanishing.
func TestChaosRepairAbsorbsOnlyExpectedOutcomes(t *testing.T) {
	bed, err := newFaultBed(11, 0)
	if err != nil {
		t.Fatal(err)
	}
	proxy, _ := bed.Dep.ProxyFor(1)
	crash := func(ids ...topo.NodeID) *faultinject.Schedule {
		s := &faultinject.Schedule{}
		for i, id := range ids {
			s.Events = append(s.Events, faultinject.Event{AtUS: int64(10_000 * (i + 1)), Kind: faultinject.KindCrash, Target: id})
		}
		return s
	}
	refused := &mgmt.RefusedError{Node: bed.fw[1], Reason: "device stopped"}
	cases := []struct {
		name              string
		on                Backend
		sched             *faultinject.Schedule
		repairs, degraded int
		wantErr           string
	}{
		{name: "no live provider", on: Sim, sched: crash(bed.ids[0], bed.ids[1]), repairs: 1, degraded: 1},
		{name: "not a middlebox", on: Sim, sched: crash(proxy)},
		{name: "aborted prepare", on: simFailing(fmt.Errorf("prepare failed: %w", mgmt.ErrAckTimeout)), sched: crash(bed.fw[0])},
		{name: "refused prepare", on: simFailing(fmt.Errorf("prepare failed: %w", refused)), sched: crash(bed.fw[0])},
		{name: "decided straggler", on: simFailing(fmt.Errorf("%w: %w", mgmt.ErrCommitStraggler, refused)), sched: crash(bed.fw[0]), repairs: 1},
		{name: "anything else", on: simFailing(errors.New("disk full")), sched: crash(bed.fw[0]), wantErr: "disk full"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := Recovery(11)
			sc.Schedule, sc.Flows, sc.PacketsPerFlow = tc.sched, 8, 100
			res, err := Run(tc.on, sc)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one naming %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if res.Repairs != tc.repairs || res.Degraded != tc.degraded {
				t.Errorf("repairs=%d degraded=%d, want %d and %d", res.Repairs, res.Degraded, tc.repairs, tc.degraded)
			}
		})
	}
}

// TestRolloutIsWriteAhead: the epoch fence is journaled before the push it
// fences. A rollout whose journal append fails must therefore reach no
// agent and mint no epoch — with the fence after the push, the plan landed
// and a restart then re-minted the epoch it never recorded.
func TestRolloutIsWriteAhead(t *testing.T) {
	bed, err := newFaultBed(11, enforce.HotPotato)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := newLive(bed.Site, Scenario{}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	s := sub.(*liveSubstrate)
	lead, _ := s.leader()
	if err := bed.Ctl.ResumeJournal(lead.State, lead.Journal); err != nil {
		t.Fatal(err)
	}
	if err := s.Rollout(bed.Plane, nil); err != nil {
		t.Fatal(err)
	}
	applies := func() (n int64) {
		for _, a := range s.fleet.Agents {
			n += a.Stats().Applies
		}
		return n
	}
	epoch, applied := s.leaderServer().Epoch(), applies()
	if epoch != 1 || applied != int64(len(s.fleet.IDs)) {
		t.Fatalf("first rollout: epoch %d, %d applies, want 1 and one per agent", epoch, applied)
	}
	if err := lead.Journal.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Rollout(bed.Plane, nil); err == nil {
		t.Fatal("a rollout whose fence could not be journaled succeeded")
	}
	if got := s.leaderServer().Epoch(); got != epoch {
		t.Errorf("the unfenced rollout minted epoch %d", got)
	}
	if got := applies(); got != applied {
		t.Errorf("the unfenced rollout reached the agents: %d applies, had %d", got, applied)
	}
}
