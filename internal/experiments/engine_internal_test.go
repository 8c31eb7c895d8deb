package experiments

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/faultinject"
	"sdme/internal/mgmt"
	"sdme/internal/netaddr"
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

// TestPlayFiresInResolvedOrder: both substrates replay a jittered
// schedule in resolved order, the two events at one instant in script
// order. On virtual time each fires at its exact offset; on wall time
// none fires before it.
func TestPlayFiresInResolvedOrder(t *testing.T) {
	sched := faultinject.MustParse("seed 7\n30ms crash 3\n10ms crash 1\n20ms wedge 2 jitter=20ms\n10ms conn-drop 4\n")
	want := sched.Resolve()
	if want[0].Target != 1 || want[1].Target != 4 {
		t.Fatalf("resolved %v: the same-instant pair is not first, in script order", want)
	}
	for _, on := range Backends {
		t.Run(on.String(), func(t *testing.T) {
			bed, err := newFaultBed(11, enforce.HotPotato)
			if err != nil {
				t.Fatal(err)
			}
			sub, err := on.newSubstrate(bed.Site, Scenario{}, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()
			var got []faultinject.Event
			var firedUS []int64
			startUS := sub.NowUS()
			sub.Play(sched, func(ev faultinject.Event) {
				got = append(got, ev)
				firedUS = append(firedUS, sub.NowUS()-startUS)
			})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("fired %v, want %v", got, want)
			}
			for i, ev := range want {
				if firedUS[i] < ev.AtUS || on.String() == "sim" && firedUS[i] != ev.AtUS {
					t.Errorf("%v fired at %d µs", ev, firedUS[i])
				}
			}
		})
	}
}

// TestSimOfferStartsNow: a workload offered after t = 0 starts then and
// keeps its pace — one packet every trafficGapUS — instead of injecting
// every packet already due at once.
func TestSimOfferStartsNow(t *testing.T) {
	bed, err := newFaultBed(11, enforce.HotPotato)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSim(bed.Site)
	const t0, packets = 50_000, 10
	s.eng.After(t0, func() {})
	s.eng.Run(0)
	if err := s.Offer([]netaddr.FiveTuple{bedFlow(0)}, packets); err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= packets; k++ {
		s.eng.Run(t0 + int64(k-1)*trafficGapUS + trafficGapUS/2)
		if got := s.Network.Stats().PacketsInjected; got != int64(k) {
			t.Fatalf("%d µs after the offer: %d packets injected, want %d", int64(k-1)*trafficGapUS+trafficGapUS/2, got, k)
		}
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

// TestChaosDeposedJournalWrite: a replica closes the journal writer it lent
// its controller when it is voted out or stopped, at any moment after the
// controller resumed it. The first leader's history, and a repair's
// failed-set record and re-solve, that find the writer closed leave the
// work to the successor, as a rollout that finds its controller deposed
// does, instead of failing the story.
func TestChaosDeposedJournalWrite(t *testing.T) {
	bed, err := newFaultBed(11, enforce.LoadBalanced)
	if err != nil {
		t.Fatal(err)
	}
	// deposed returns a story whose leading plane resumed a lent writer,
	// ran before, and then lost the writer to a demotion.
	deposed := func(t *testing.T, before func(t *testing.T, c *control)) *control {
		j, err := controller.OpenJournal(filepath.Join(t.TempDir(), "journal"))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = j.Close() })
		w := j.Writer()
		ctl := bed.newController()
		if err := ctl.ResumeJournal(&controller.JournalState{}, w); err != nil {
			t.Fatal(err)
		}
		c := &control{bed: bed, sc: Recovery(11), down: make(map[topo.NodeID]bool), rolled: true}
		c.Plane = Plane{Ctl: ctl, Pipe: ctl.NewPipeline(controller.PipelineOptions{})}
		before(t, c)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return c
	}
	history := func(t *testing.T, c *control) {
		if err := c.history(); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("history", func(t *testing.T) {
		c := deposed(t, func(*testing.T, *control) {})
		if err := c.history(); !errors.Is(err, errDeposed) {
			t.Fatalf("history through a closed writer: %v, want errDeposed", err)
		}
	})
	t.Run("repair records the failed set", func(t *testing.T) {
		c := deposed(t, history)
		c.down[bed.fw[1]] = true
		c.reconcile(false)
		if c.err != nil || c.rolled {
			t.Fatalf("err=%v rolled=%v, want the repair left to the successor", c.err, c.rolled)
		}
	})
	t.Run("repair re-solves", func(t *testing.T) {
		c := deposed(t, func(t *testing.T, c *control) {
			history(t, c)
			c.down[bed.fw[1]] = true
			if err := c.Ctl.MarkFailed(bed.fw[1], true); err != nil {
				t.Fatal(err)
			}
			c.Pipe.NodeChanged(bed.fw[1])
		})
		c.reconcile(false)
		if c.err != nil || c.rolled {
			t.Fatalf("err=%v rolled=%v, want the repair left to the successor", c.err, c.rolled)
		}
	})
}
