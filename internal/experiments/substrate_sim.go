package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"

	"sdme/internal/controller"
	"sdme/internal/faultinject"
	"sdme/internal/mgmt"
	"sdme/internal/netaddr"
	"sdme/internal/ospf"
	"sdme/internal/sim"
	"sdme/internal/topo"
)

// Sim runs a story on the discrete-event simulator: virtual time, exact
// drop accounting, no management channel — the same seed gives the same
// numbers.
var Sim = Backend{name: "sim", leaseUS: simLeaseUS, newSubstrate: newSim}

const simLeaseUS = 20_000

// simDetectUS is the failure-detection latency the simulator models (the
// live backend detects with a real health monitor).
const simDetectUS = 20_000

// simClock is an event engine as a story's clock. A report is answered
// inside the event that raised it, and may wait on the clock there (the
// engine runs re-entrantly); the reports that raises queue up behind it,
// so one is answered at a time.
type simClock struct {
	eng        *sim.Engine
	pending    []func()
	delivering bool
}

func (c *simClock) NowUS() int64 { return c.eng.Now() }

func (c *simClock) post(report func()) {
	c.pending = append(c.pending, report)
	if c.delivering {
		return
	}
	c.delivering = true
	for len(c.pending) > 0 {
		report, c.pending = c.pending[0], c.pending[1:]
		report()
	}
	c.delivering = false
}

// Await looks at cond every 500 virtual µs, and gives up early once
// nothing is left to happen.
func (c *simClock) Await(limitUS int64, cond func() bool) bool {
	// Walk a cursor, not the clock: Run only advances the clock to the
	// last processed event.
	cursor := c.eng.Now()
	deadline := cursor + limitUS
	for !cond() {
		if cursor >= deadline || c.eng.Pending() == 0 {
			return false
		}
		cursor += 500
		c.eng.Run(cursor)
	}
	return true
}

func (c *simClock) Every(gapUS int64, report func()) (stop func()) {
	stopped := false
	var tick func()
	tick = func() {
		c.post(func() {
			if !stopped {
				report()
				c.eng.After(gapUS, tick)
			}
		})
	}
	c.eng.After(gapUS, tick)
	return func() { stopped = true }
}

// SimSubstrate is a Site on the simulator: an OSPF-routed network of the
// site's nodes and the controller that plans for them — a replica group,
// when there is one — on one event engine.
type SimSubstrate struct {
	simClock
	leadership
	Site
	Network *sim.Network
	// Flooding is what converging the routing domain cost.
	Flooding ospf.FloodStats

	report func(id topo.NodeID, down bool)

	// dir holds the journals. Without a management channel an epoch is a
	// number a replica group fences in its leader's journal.
	dir   string
	epoch uint64
	// offeredUS is when the workload's last packet enters the network.
	offeredUS int64
}

// NewSim converges routing over the site's graph and assembles the
// simulation, planned for by one controller that keeps no journal.
func NewSim(site Site) *SimSubstrate {
	s, _ := newSim(site, Scenario{}, "") // only a journal can fail to come up
	return s.(*SimSubstrate)
}

func newSim(site Site, sc Scenario, dir string) (Substrate, error) {
	dom := ospf.NewDomain(site.Graph)
	flooding := dom.Converge()
	nw := sim.New(site.Graph, dom, site.Dep, site.Nodes)
	s := &SimSubstrate{simClock: simClock{eng: nw.Engine}, Network: nw, Flooding: flooding, Site: site, dir: dir}
	s.leadership = leadership{
		now:  s.NowUS,
		kill: func(id int) { s.group.Load().Kill(id) },
		// An event of its own, at the same instant: the election hook that
		// raised the report returns before the report is answered.
		raise: func(report func()) { s.eng.After(0, func() { s.post(report) }) },
	}
	switch {
	case sc.Replicas > 0:
		// The group rides the network's engine: one clock, one event order.
		g, err := sim.NewControllerGroup(s.eng, sim.ControllerGroupConfig{
			N: sc.Replicas, Dir: dir, LeaseUS: simLeaseUS, Seed: sc.Seed,
			OnPromote: func(id int, st *controller.JournalState, j *controller.Journal, term uint64) {
				s.epoch = max(s.epoch, st.Epoch)
				s.promoted(Lead{ID: id, Term: term, State: st, Journal: j})
			},
			OnDemote: s.demoted,
		})
		if err != nil {
			return nil, err
		}
		s.group.Store(g.Group)
	case dir != "":
		return s, s.reopen(s.path())
	default:
		s.promoted(Lead{State: &controller.JournalState{}})
	}
	return s, nil
}

// path is where an unreplicated controller keeps its journal.
func (s *SimSubstrate) path() string { return filepath.Join(s.dir, "controller.wal") }

func (s *SimSubstrate) Offer(flows []netaddr.FiveTuple, packetsPerFlow int) error {
	s.offeredUS = s.eng.Now() + int64(len(flows))*97 + int64(packetsPerFlow)*trafficGapUS
	for i, ft := range flows {
		if err := s.Network.InjectFlow(ft, packetsPerFlow, 256, int64(i)*97, trafficGapUS); err != nil {
			return err
		}
	}
	return nil
}

func (s *SimSubstrate) OnHealth(report func(id topo.NodeID, down bool)) { s.report = report }

// Apply models the dataplane faults and the controller's. A wedged device
// is indistinguishable from a crashed one here: both blackhole until
// repaired. Management-channel faults have nothing to act on.
func (s *SimSubstrate) Apply(ev faultinject.Event) error {
	var down bool
	switch ev.Kind {
	case faultinject.KindCrash, faultinject.KindWedge:
		down = true
	case faultinject.KindRecover, faultinject.KindUnwedge:
	case faultinject.KindLeaderKill:
		s.killLeader()
		return nil
	case faultinject.KindControllerRestart:
		// The kill: no state survives but the file.
		if l, ok := s.depose(); ok && l.Journal != nil {
			return errors.Join(l.Journal.Close(), s.reopen(s.path()))
		}
		return nil
	default:
		return nil
	}
	s.Network.SetNodeDown(ev.Target, down)
	if s.report != nil {
		s.eng.After(simDetectUS, func() { s.post(func() { s.report(ev.Target, down) }) })
	}
	return nil
}

func (s *SimSubstrate) Play(sched *faultinject.Schedule, apply func(faultinject.Event)) {
	var lastUS int64
	for _, ev := range sched.Resolve() {
		lastUS = ev.AtUS
	}
	faultinject.DriveSim(sched, s.eng, apply)
	if lastUS > 0 {
		s.eng.Run(s.eng.Now() + lastUS)
	}
}

// Rollout applies the update in place — the one place a plan meets the
// simulated nodes; the engine is single-threaded, so mutating nodes
// between events is safe. A whole plan is installed as the
// configurations a fresh build from it gives.
func (s *SimSubstrate) Rollout(p Plane, upd *controller.PlanUpdate) error {
	l, err := s.leadOf(p)
	if err != nil {
		return err
	}
	if s.group.Load() != nil {
		s.epoch++
		if err := l.Journal.LogEpoch(s.epoch, l.Term); err != nil {
			return err
		}
		if err := s.awaitQuorum(s, l); err != nil {
			return err
		}
	}
	if upd != nil {
		return controller.ApplyDeltas(s.Nodes, upd.Deltas)
	}
	built, err := p.Ctl.BuildNodesFromPlan(p.Pipe.Plan())
	if err != nil {
		return err
	}
	for id, n := range built {
		if err := s.Nodes[id].Install(n.Config()); err != nil {
			return err
		}
	}
	return nil
}

// Rebalance is one turn of the §III-C loop on the simulator: the plane
// re-solves over meas and the update is rolled out.
func (s *SimSubstrate) Rebalance(p Plane, meas controller.Measurements) (*controller.PlanUpdate, error) {
	upd, err := p.Pipe.Recompute(meas)
	if err != nil {
		return nil, err
	}
	return upd, s.Rollout(p, upd)
}

// Drain runs the network dry. A replica group's timers never let the
// event queue drain: there the run ends a second after the last packet
// was offered.
func (s *SimSubstrate) Drain() {
	if s.group.Load() == nil {
		s.eng.Run(0)
	} else {
		s.eng.Run(max(s.eng.Now(), s.offeredUS) + 1_000_000)
	}
}

func (s *SimSubstrate) Totals() Totals {
	st := s.Network.Stats()
	t := Totals{
		Injected: st.PacketsInjected, Delivered: st.Delivered, DroppedDown: st.DroppedDown,
		Epoch:  s.epoch,
		InSync: true, // updates are applied synchronously
	}
	for _, n := range s.Nodes {
		t.Failovers += n.Counters.Failovers
		t.Invalidated += n.Counters.Invalidated
	}
	s.count(&t)
	return t
}

func (s *SimSubstrate) Close() {
	if g := s.group.Load(); g != nil {
		g.Close()
	} else if l, ok := s.depose(); ok && l.Journal != nil {
		_ = l.Journal.Close()
	}
}

// StaleRefused delivers a well-formed journal frame stamped with the
// deposed leader's term to a live standby, at exactly the offset the
// standby would otherwise append at — only the term fence can refuse it —
// and reports whether the standby's journal stayed untouched.
func (s *SimSubstrate) StaleRefused(oldLeader int, oldTerm uint64) (bool, error) {
	sb, g := -1, s.group.Load()
	cur, _ := g.Leader()
	for i := 0; i < g.N(); i++ {
		if g.Alive(i) && i != cur.ID {
			sb = i
			break
		}
	}
	if sb < 0 {
		return false, fmt.Errorf("experiments: no live standby for the stale-frame check")
	}
	// Fresh, CRC-valid frame bytes from a scratch journal: everything
	// about the frame is legitimate except the term it rode in under.
	sj, err := controller.OpenJournal(filepath.Join(s.dir, "stale-scratch.wal"))
	if err != nil {
		return false, err
	}
	if err := sj.LogEpoch(999_999, oldTerm); err != nil {
		return false, err
	}
	frames, err := sj.ReadChunk(0, 1<<20)
	if err != nil {
		return false, err
	}
	if err := sj.Close(); err != nil {
		return false, err
	}
	standby := g.Replica(sb)
	bytesBefore := standby.JournalBytes()
	data, err := json.Marshal(mgmt.JournalFrame{
		Leader: oldLeader,
		Term:   oldTerm,
		Offset: bytesBefore,
		Frames: frames,
	})
	if err != nil {
		return false, err
	}
	standby.Deliver(&mgmt.Envelope{T: mgmt.TypeJournalFrame, Data: data})
	return standby.JournalBytes() == bytesBefore, nil
}
