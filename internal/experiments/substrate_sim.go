package experiments

import (
	"encoding/json"
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
var Sim = Backend{
	name:         "sim",
	leaseUS:      20_000,
	newSubstrate: func(site Site) (Substrate, error) { return NewSim(site), nil },
	newGroup:     newSimGroup,
}

// simDetectUS is the failure-detection latency the simulator models (the
// live backend detects with a real health monitor).
const simDetectUS = 20_000

// simClock is an event engine as a story's clock.
type simClock struct{ eng *sim.Engine }

func (c simClock) NowUS() int64 { return c.eng.Now() }

func (c simClock) Sleep(us int64) {
	if us > 0 {
		c.eng.Run(c.eng.Now() + us)
	}
}

// Await looks at cond every 500 virtual µs, and gives up early once
// nothing is left to happen.
func (c simClock) Await(limitUS int64, cond func() bool) bool {
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

func (c simClock) Every(gapUS int64, fn func()) (stop func()) {
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		c.eng.After(gapUS, tick)
	}
	c.eng.After(gapUS, tick)
	return func() { stopped = true }
}

// SimSubstrate is a Site on the simulator: an OSPF-routed network of the
// site's nodes on one event engine.
type SimSubstrate struct {
	simClock
	Network *sim.Network
	// Flooding is what converging the routing domain cost.
	Flooding ospf.FloodStats

	site   Site
	report func(id topo.NodeID, down bool)
}

// NewSim converges routing over the site's graph and assembles the
// simulation.
func NewSim(site Site) *SimSubstrate {
	dom := ospf.NewDomain(site.Graph)
	flooding := dom.Converge()
	nw := sim.New(site.Graph, dom, site.Dep, site.Nodes)
	return &SimSubstrate{simClock: simClock{nw.Engine}, Network: nw, Flooding: flooding, site: site}
}

func (s *SimSubstrate) Offer(flows []netaddr.FiveTuple, packetsPerFlow int) error {
	for i, ft := range flows {
		if err := s.Network.InjectFlow(ft, packetsPerFlow, 256, int64(i)*97, trafficGapUS); err != nil {
			return err
		}
	}
	return nil
}

func (s *SimSubstrate) OnHealth(report func(id topo.NodeID, down bool)) { s.report = report }

// Apply models the dataplane faults. A wedged device is indistinguishable
// from a crashed one here: both blackhole until repaired. Management-
// channel faults have nothing to act on.
func (s *SimSubstrate) Apply(ev faultinject.Event) {
	var down bool
	switch ev.Kind {
	case faultinject.KindCrash, faultinject.KindWedge:
		down = true
	case faultinject.KindRecover, faultinject.KindUnwedge:
	default:
		return
	}
	s.Network.SetNodeDown(ev.Target, down)
	if s.report != nil {
		s.eng.After(simDetectUS, func() { s.report(ev.Target, down) })
	}
}

func (s *SimSubstrate) Play(sched *faultinject.Schedule, apply func(faultinject.Event)) {
	var lastUS int64
	for _, ev := range sched.Resolve() {
		lastUS = ev.AtUS
	}
	faultinject.DriveSim(sched, s.eng, apply)
	s.Sleep(lastUS)
}

// Rollout applies the update's deltas in place; the engine is
// single-threaded, so mutating nodes between events is safe. The site's
// nodes were built from the plane's plan, so there is no whole plan to
// establish.
func (s *SimSubstrate) Rollout(_ Plane, upd *controller.PlanUpdate) error {
	if upd == nil {
		return nil
	}
	return controller.ApplyDeltas(s.site.Nodes, upd.Deltas)
}

// RestartController has no endpoint to restart: plans reach the nodes in
// process.
func (s *SimSubstrate) RestartController(uint64) error { return nil }

func (s *SimSubstrate) Drain() { s.Network.Run(0) }

func (s *SimSubstrate) Totals() Totals {
	st := s.Network.Stats()
	t := Totals{
		Injected: st.PacketsInjected, Delivered: st.Delivered, DroppedDown: st.DroppedDown,
		InSync: true, // deltas are applied synchronously
	}
	for _, n := range s.site.Nodes {
		t.Failovers += n.Counters.Failovers
		t.Invalidated += n.Counters.Invalidated
	}
	return t
}

func (s *SimSubstrate) Close() {}

// simGroup is a sim.ControllerGroup on its own engine. It has no
// management channel, so an epoch is a number it fences in the leader's
// journal.
type simGroup struct {
	simClock
	group     *sim.ControllerGroup
	dir       string
	nextEpoch uint64
}

func newSimGroup(_ Site, cfg HAConfig, dir string, promote promoteHook, demote demoteHook) (group, error) {
	g := &simGroup{simClock: simClock{sim.NewEngine()}, dir: dir}
	var err error
	g.group, err = sim.NewControllerGroup(g.eng, sim.ControllerGroupConfig{
		N:       cfg.Replicas,
		Dir:     dir,
		LeaseUS: cfg.leaseUS,
		Seed:    cfg.Seed,
		OnPromote: func(id int, st *controller.JournalState, j *controller.Journal, term uint64) {
			if promote(id, st, j, term) == nil && st.Epoch > g.nextEpoch {
				g.nextEpoch = st.Epoch
			}
		},
		OnDemote: func(id int, _ uint64) { demote(id) },
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}

func (g *simGroup) AwaitLeader(limitUS int64, minTerm uint64) (int, uint64, int64) {
	return g.group.RunUntilLeader(g.eng.Now()+limitUS, minTerm)
}

func (g *simGroup) Kill(id int) { g.group.Kill(id) }

func (g *simGroup) Commit(l *leader, limitUS int64) (uint64, error) {
	g.nextEpoch++
	if err := l.j.LogEpoch(g.nextEpoch, l.term); err != nil {
		return 0, err
	}
	// Stream-before-ack: the plan counts as durable once a quorum of
	// replicas holds the leader's whole journal.
	if !g.Await(limitUS, func() bool {
		repl := g.group.Replica(l.id).Replicator()
		return repl != nil && repl.QuorumBytes() >= l.j.Size()
	}) {
		return 0, fmt.Errorf("experiments: replica %d's journal never reached quorum", l.id)
	}
	return g.nextEpoch, nil
}

func (g *simGroup) Probe(l *leader) bool {
	g.nextEpoch++
	return l.j.LogEpoch(g.nextEpoch, l.term) == nil
}

// StaleRefused delivers a well-formed journal frame stamped with the
// deposed leader's term to a live standby, at exactly the offset the
// standby would otherwise append at — only the term fence can refuse it —
// and reports whether the standby's journal stayed untouched.
func (g *simGroup) StaleRefused(oldLeader int, oldTerm uint64) (bool, error) {
	sb := -1
	cur, _ := g.group.Leader()
	for i := 0; i < g.group.N(); i++ {
		if g.group.Alive(i) && i != cur.ID {
			sb = i
			break
		}
	}
	if sb < 0 {
		return false, fmt.Errorf("experiments: no live standby for the stale-frame check")
	}
	// Fresh, CRC-valid frame bytes from a scratch journal: everything
	// about the frame is legitimate except the term it rode in under.
	sj, err := controller.OpenJournal(filepath.Join(g.dir, "stale-scratch.wal"))
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
	standby := g.group.Replica(sb)
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

func (g *simGroup) Totals() GroupTotals { return groupTotals(g.group.Group) }

func (g *simGroup) Close() { g.group.Close() }
