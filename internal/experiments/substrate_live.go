package experiments

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/faultinject"
	"sdme/internal/ha"
	"sdme/internal/live"
	"sdme/internal/metrics"
	"sdme/internal/mgmt"
	"sdme/internal/netaddr"
	"sdme/internal/topo"
)

// Live runs a story over real sockets on loopback: UDP devices, the TCP
// management channel with its reconnect and epoch machinery, a health
// monitor, wall clocks. The numbers are approximate; the verdicts are
// exact.
var Live = Backend{
	name:         "live",
	leaseUS:      liveLeaseUS,
	newSubstrate: newLive,
	conform:      liveConform,
}

// liveLeaseUS is the election lease wall-clock timers can keep on a busy
// host.
const liveLeaseUS = 60_000

// pushPol is how hard a story's rollouts try before giving a node up.
var pushPol = mgmt.RetryPolicy{Attempts: 4, PerAttempt: 2 * time.Second, Backoff: 25 * time.Millisecond}

// agentBackoff is the reconnect pacing of a story's agents: fast enough
// that a dropped connection heals within a fault schedule's gaps.
var agentBackoff = mgmt.AgentOptions{BackoffMin: 5 * time.Millisecond, BackoffMax: 100 * time.Millisecond}

// wallClock is the time since a story began; its timers (AfterUS) are the
// wall's.
type wallClock struct {
	ha.WallClock
	beganUS int64
}

func newWallClock() wallClock { return wallClock{beganUS: ha.WallClock{}.NowUS()} }

func (c wallClock) NowUS() int64 { return c.WallClock.NowUS() - c.beganUS }

func (c wallClock) Await(limitUS int64, cond func() bool) bool {
	return live.WaitUntil(time.Duration(limitUS)*time.Microsecond, cond)
}

// Every runs fn on its own goroutine; stop waits for it.
func (c wallClock) Every(gapUS int64, fn func()) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-quit:
				return
			case <-time.After(time.Duration(gapUS) * time.Microsecond):
				fn()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(quit) })
		<-done
	}
}

// Fleet is a live dataplane: one UDP device per enforcement node on
// loopback and, once connected, one management agent per device.
type Fleet struct {
	Runtime *live.Runtime
	Devices map[topo.NodeID]*live.Device
	Agents  map[topo.NodeID]*mgmt.Agent
	// IDs lists the devices' nodes in ID order.
	IDs []topo.NodeID
}

// NewFleet creates the runtime; tune it, then Add the nodes.
func NewFleet() *Fleet {
	return &Fleet{
		Runtime: live.NewRuntime(),
		Devices: make(map[topo.NodeID]*live.Device),
		Agents:  make(map[topo.NodeID]*mgmt.Agent),
	}
}

// Add starts a device per node. The device goroutines own the nodes from
// here on.
func (f *Fleet) Add(nodes map[topo.NodeID]*enforce.Node) error {
	for id, n := range nodes {
		dev, err := f.Runtime.AddDevice(n)
		if err != nil {
			return err
		}
		f.Devices[id] = dev
		f.IDs = append(f.IDs, id)
	}
	f.IDs = topo.SortedIDs(f.IDs)
	return nil
}

// Connect gives every device a management agent dialing addr (and
// rotating through opts.Addrs, when set).
func (f *Fleet) Connect(addr string, opts mgmt.AgentOptions) error {
	for _, id := range f.IDs {
		agent, err := mgmt.NewAgentWith(f.Devices[id], addr, opts)
		if err != nil {
			return err
		}
		f.Agents[id] = agent
	}
	return nil
}

// agentStats sums the agents' reconnect and redirect counts.
func (f *Fleet) agentStats() (reconnects, redirects int64) {
	for _, a := range f.Agents {
		st := a.Stats()
		reconnects += st.Reconnects
		redirects += st.Redirects
	}
	return reconnects, redirects
}

// Close stops the agents, then the devices.
func (f *Fleet) Close() {
	for _, a := range f.Agents {
		a.Close()
	}
	f.Runtime.Close()
}

// liveSubstrate is a Site on real sockets: a fleet, a health monitor
// feeding the dataplane's liveness view, and the control plane — one
// management server per controller replica, and with a replica group a
// peer bus each. A group's servers are gated shut until their replica wins
// an election; the standbys bounce agents to the leader.
type liveSubstrate struct {
	wallClock
	leadership
	site    Site
	fleet   *Fleet
	buses   []*mgmt.PeerBus
	reg     *metrics.Registry
	monitor *live.HealthMonitor
	sink    *live.Sink
	// path is where an unreplicated controller keeps its journal ("": it
	// keeps none, or there is a replica group).
	path string

	// reports counts the leadership reports being answered: each runs on a
	// goroutine of its own, off the elector's.
	reports sync.WaitGroup

	injected    atomic.Int64
	stopTraffic func()

	report atomic.Pointer[func(id topo.NodeID, down bool)]

	// servers holds one per replica, one for an unreplicated controller
	// (replaced when it restarts).
	servers []atomic.Pointer[mgmt.Server]
	// gates serializes the servers' leader-gate flips: the promotion hooks
	// fire on elector timer goroutines.
	gates sync.Mutex

	// mu guards the rest. It is never held across a call that waits on a
	// device: a repair can spend seconds awaiting an ack only the unwedge
	// event can release.
	mu       sync.Mutex
	crashed  map[topo.NodeID]bool
	releases map[topo.NodeID]func()
}

func newLive(site Site, sc Scenario, dir string) (Substrate, error) {
	s := &liveSubstrate{
		wallClock:   newWallClock(),
		site:        site,
		stopTraffic: func() {},
		servers:     make([]atomic.Pointer[mgmt.Server], max(sc.Replicas, 1)),
		crashed:     make(map[topo.NodeID]bool),
		releases:    make(map[topo.NodeID]func()),
	}
	s.leadership = leadership{
		now:  s.NowUS,
		kill: func(id int) { s.buses[id].Close() },
		raise: func(report func()) {
			s.reports.Add(1)
			go func() {
				defer s.reports.Done()
				report()
			}()
		},
	}
	s.reg = metrics.NewRegistry(s.NowUS)
	if err := s.start(sc, dir); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// start is the one bring-up: the servers, the controller or the replica
// group behind them, then the fleet under whoever leads first — an agent's
// first dial must reach a server whose gate is open.
func (s *liveSubstrate) start(sc Scenario, dir string) error {
	opts := agentBackoff
	for id := range s.servers {
		if err := s.listen(id, "127.0.0.1:0"); err != nil {
			return err
		}
	}
	var err error
	switch {
	case sc.Replicas > 0:
		// Every agent knows every replica's server.
		opts.HealthyPeriod = 250 * time.Millisecond
		for id := range s.servers {
			opts.Addrs = append(opts.Addrs, s.servers[id].Load().Addr())
		}
		err = s.startGroup(sc, dir)
	case dir != "":
		s.path = filepath.Join(dir, "controller.wal")
		err = s.reopen(s.path)
	default:
		s.promoted(Lead{State: &controller.JournalState{}})
	}
	if err != nil {
		return err
	}
	var first Lead
	if !s.Await(awaitUS, func() (ok bool) { first, ok = s.leader(); return ok }) {
		return fmt.Errorf("experiments: no replica won the first election")
	}
	s.fleet = NewFleet()
	if err := s.fleet.Add(s.site.Nodes); err != nil {
		return err
	}
	if err := s.fleet.Connect(s.servers[first.ID].Load().Addr(), opts); err != nil {
		return err
	}
	s.monitor = s.fleet.Runtime.NewHealthMonitor(10*time.Millisecond, 2,
		func(id topo.NodeID) { s.health(id, true) },
		func(id topo.NodeID) { s.health(id, false) })
	s.monitor.Start()
	return nil
}

// listen starts replica id's management server on addr.
func (s *liveSubstrate) listen(id int, addr string) error {
	srv, err := mgmt.NewServer(addr, nil)
	if err != nil {
		return err
	}
	srv.SetMetrics(s.reg)
	srv.SetRepushPolicy(pushPol)
	s.servers[id].Store(srv)
	return nil
}

// startGroup gates every server shut and puts an ha.Group behind them, a
// peer bus per replica.
func (s *liveSubstrate) startGroup(sc Scenario, dir string) error {
	busAddrs := make(map[int]string, sc.Replicas)
	for id := range s.servers {
		s.servers[id].Load().SetNotLeader("")
		// A bus can deliver before the group is built; until then it drops
		// the envelope.
		bus, err := mgmt.NewPeerBus(id, "127.0.0.1:0", func(env *mgmt.Envelope) {
			if g := s.group.Load(); g != nil {
				g.Replica(id).Deliver(env)
			}
		})
		if err != nil {
			return err
		}
		s.buses = append(s.buses, bus)
		busAddrs[id] = bus.Addr()
	}
	for _, b := range s.buses {
		b.SetPeers(busAddrs)
	}
	g, err := ha.NewGroup(ha.GroupConfig{
		N: sc.Replicas, Dir: dir, LeaseUS: liveLeaseUS, Seed: sc.Seed,
		Clock:     s.wallClock,
		Transport: func(id int) ha.PeerTransport { return s.buses[id] },
		OnPromote: s.opened,
		OnDemote:  s.shut,
	})
	if err != nil {
		return err
	}
	s.group.Store(g)
	return nil
}

// opened opens the winner's server under the new term — epochs resumed
// past the replayed high-water — while every other server bounces agents
// to it.
func (s *liveSubstrate) opened(id int, st *controller.JournalState, j *controller.Journal, term uint64) {
	s.gates.Lock()
	srv := s.servers[id].Load()
	srv.ResumeEpoch(st.Epoch)
	srv.SetLeader(term)
	for k := range s.servers {
		if k != id {
			s.servers[k].Load().SetNotLeader(srv.Addr())
		}
	}
	s.gates.Unlock()
	s.promoted(Lead{ID: id, Term: term, State: st, Journal: j})
}

// shut gates the deposed leader's server and sheds its agents — they
// re-home to the new leader through rotation and redirects.
func (s *liveSubstrate) shut(id int, term uint64) {
	s.demoted(id, term)
	s.servers[id].Load().SetNotLeader("")
	s.servers[id].Load().DropAllConns()
}

// restart kills the unreplicated controller's management endpoint under
// the agents it serves — no state survives but the journal file — and
// brings a new one up that numbers its epochs past the journal's
// high-water.
func (s *liveSubstrate) restart(old Lead) error {
	if err := old.Journal.Close(); err != nil {
		return err
	}
	addr := s.servers[0].Load().Addr()
	s.servers[0].Load().Close()
	// The old listener's port can linger briefly; retry the bind. The
	// surviving agents' reconnect loops find the new server there.
	var err error
	for i := 0; i < 50; i++ {
		if err = s.listen(0, addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("experiments: rebind %s: %w", addr, err)
	}
	if err := s.reopen(s.path); err != nil {
		return err
	}
	l, _ := s.leader()
	s.servers[0].Load().ResumeEpoch(l.State.Epoch)
	return nil
}

func (s *liveSubstrate) health(id topo.NodeID, down bool) {
	s.fleet.Runtime.SetProviderDown(id, down)
	if report := s.report.Load(); report != nil {
		(*report)(id, down)
	}
}

func (s *liveSubstrate) Offer(flows []netaddr.FiveTuple, _ int) error {
	dsts := make([]netaddr.Addr, len(flows))
	for i, ft := range flows {
		dsts[i] = ft.Dst
	}
	var err error
	if s.sink, err = s.fleet.Runtime.AddSink(dsts...); err != nil || len(flows) == 0 {
		return err
	}
	next := 0
	s.stopTraffic = s.Every(trafficGapUS, func() {
		ft := flows[next%len(flows)]
		next++
		proxyID, ok := s.site.Dep.ProxyFor(s.site.Dep.SubnetIndexOf(ft.Src))
		if ok && s.fleet.Runtime.Send(s.site.Dep.AddrOf(proxyID), ft, trafficPayload) == nil {
			s.injected.Add(1)
		}
	})
	return nil
}

func (s *liveSubstrate) OnHealth(report func(id topo.NodeID, down bool)) { s.report.Store(&report) }

func (s *liveSubstrate) Apply(ev faultinject.Event) error {
	switch ev.Kind {
	case faultinject.KindCrash:
		s.mu.Lock()
		s.crashed[ev.Target] = true
		s.mu.Unlock()
		s.fleet.Devices[ev.Target].Stop()
	case faultinject.KindWedge:
		release := s.fleet.Devices[ev.Target].Wedge()
		s.mu.Lock()
		s.releases[ev.Target] = release
		s.mu.Unlock()
	case faultinject.KindUnwedge:
		s.mu.Lock()
		release := s.releases[ev.Target]
		delete(s.releases, ev.Target)
		s.mu.Unlock()
		if release != nil {
			release()
		}
	case faultinject.KindConnDrop:
		s.leaderServer().DropConn(ev.Target)
	case faultinject.KindLeaderKill:
		// The kill partitions the replica from its peers by closing its
		// bus. It still believes it leads — until its lease starves and it
		// deposes itself — which is exactly the split-brain window the
		// fences close.
		s.killLeader()
	case faultinject.KindControllerRestart:
		if old, ok := s.depose(); ok && old.Journal != nil {
			return s.restart(old)
		}
	default:
		return fmt.Errorf("experiments: the live substrate cannot stage %v faults", ev.Kind)
	}
	return nil
}

// Play sleeps until each resolved offset, measured from the call, and
// applies the event on the calling goroutine.
func (s *liveSubstrate) Play(sched *faultinject.Schedule, apply func(faultinject.Event)) {
	start := time.Now()
	for _, ev := range sched.Resolve() {
		time.Sleep(time.Until(start.Add(time.Duration(ev.AtUS) * time.Microsecond)))
		apply(ev)
	}
}

// leaderServer is the server of whoever led last.
func (s *liveSubstrate) leaderServer() *mgmt.Server {
	l, _ := s.leader()
	return s.servers[l.ID].Load()
}

// Rollout pushes through the leader's server, under the epoch-fenced
// two-phase protocol.
func (s *liveSubstrate) Rollout(p Plane, upd *controller.PlanUpdate) (err error) {
	l, err := s.leadOf(p)
	if err != nil {
		return err
	}
	defer func() {
		// Whatever a controller hits after it was killed or voted out is
		// the deposition's doing.
		if err != nil {
			if _, lost := s.leadOf(p); lost != nil {
				err = errors.Join(lost, err)
			}
		}
	}()
	srv := s.servers[l.ID].Load()
	if j := p.Ctl.Journal(); j != nil {
		if err := j.LogEpoch(srv.Epoch()+1, l.Term); err != nil {
			return err
		}
		if s.group.Load() != nil {
			if err := s.awaitQuorum(s, l); err != nil {
				return err
			}
		}
	}
	// The whole plan goes to a server that holds no base yet, while the
	// fleet may still be re-homing: once every agent is there (a stopped
	// device's agent lives on, stages, and straggles at commit).
	if upd == nil && !srv.WaitConnected(10*time.Second, s.fleet.IDs...) {
		return fmt.Errorf("experiments: agents did not reach %s: connected %v", srv.Addr(), srv.Connected())
	}
	_, err = p.Pipe.Rollout(srv, upd, pushPol)
	return err
}

func (s *liveSubstrate) Drain() {
	s.stopTraffic()
	time.Sleep(50 * time.Millisecond) // packets in flight
}

func (s *liveSubstrate) Totals() Totals {
	srv := s.leaderServer()
	t := Totals{Injected: s.injected.Load(), Epoch: srv.Epoch(), Agents: len(s.fleet.IDs)}
	if s.sink != nil {
		t.Delivered = int64(s.sink.Received())
	}
	if t.Injected > t.Delivered {
		t.DroppedDown = t.Injected - t.Delivered
	}
	s.mu.Lock()
	var survivors, readable []topo.NodeID
	for _, id := range s.fleet.IDs {
		if !s.crashed[id] {
			survivors = append(survivors, id)
		}
		if s.releases[id] == nil { // a wedged device answers nothing until released
			readable = append(readable, id)
		}
	}
	s.mu.Unlock()
	for _, id := range readable {
		c := s.fleet.Devices[id].Counters()
		t.Failovers += c.Failovers
		t.Invalidated += c.Invalidated
	}
	t.Pushes = s.reg.Counter(mgmt.MetricPushes).Value() + s.reg.Counter(mgmt.MetricPushAttempts).Value()
	t.Reconnects, t.Redirects = s.fleet.agentStats()
	// In sync: every survivor is connected and has acked the latest epoch
	// pushed to it.
	connected := make(map[topo.NodeID]bool)
	for _, id := range srv.Connected() {
		connected[id] = true
	}
	t.InSync = srv.Converged(survivors...)
	for _, id := range survivors {
		t.InSync = t.InSync && connected[id]
	}
	s.count(&t)
	return t
}

func (s *liveSubstrate) Close() {
	s.stopTraffic()
	if s.monitor != nil {
		s.monitor.Stop()
	}
	if g := s.group.Load(); g != nil {
		g.Close()
	}
	// With the servers gone a rollout still being answered fails fast.
	for id := range s.servers {
		if srv := s.servers[id].Load(); srv != nil {
			srv.Close()
		}
	}
	s.reports.Wait()
	if s.fleet != nil {
		s.fleet.Close()
	}
	for _, b := range s.buses {
		b.Close()
	}
	if l, ok := s.depose(); ok && l.Journal != nil && s.path != "" {
		_ = l.Journal.Close()
	}
}

// probe pushes an empty delta for one node through srv: an epoch
// heartbeat through the full prepare/commit path, against the base srv
// recorded for the node when its whole plan committed.
func (s *liveSubstrate) probe(srv *mgmt.Server, node topo.NodeID, pol mgmt.RetryPolicy) error {
	_, err := srv.PushAllDelta2PC(map[topo.NodeID]enforce.ConfigDelta{node: {}}, nil, pol)
	return err
}

// StaleRefused checks both term fences. The deposed leader's own server
// refuses to push: its demotion gate closed before any agent could hear
// its stale term. Then it comes back as a zombie — its gate reopened at
// its dead term — and one agent is steered onto it by a redirect; the
// plan the zombie rolls out reaches that agent over a real connection,
// and the agent must refuse it. (This takes the current leader's server
// out of service.) The lease may churn between "settled" and this check,
// so it first waits for a leader other than old. What it returns names
// each fence that did not hold: the gate never closed, the agent never
// reached the zombie, or it reached it and did not refuse.
func (s *liveSubstrate) StaleRefused(old int, oldTerm uint64) (string, error) {
	var cur Lead
	if !s.Await(awaitUS, func() (ok bool) { cur, ok = s.leader(); return ok && cur.ID != old }) {
		return "", fmt.Errorf("experiments: no successor to replica %d for the stale-push check", old)
	}
	zombie, leaderSrv := s.servers[old].Load(), s.servers[cur.ID].Load()
	node := s.fleet.IDs[0]
	gated := live.WaitUntil(10*time.Second, func() bool {
		return errors.Is(s.probe(zombie, node, mgmt.RetryPolicy{Attempts: 1, PerAttempt: 100 * time.Millisecond}), mgmt.ErrNotLeader)
	})
	var why []string
	if !gated {
		why = append(why, fmt.Sprintf("replica %d's demotion gate never closed", old))
	}
	zombie.SetLeader(oldTerm)
	leaderSrv.SetNotLeader(zombie.Addr())
	leaderSrv.DropConn(node)
	if !zombie.WaitConnected(10*time.Second, node) {
		why = append(why, fmt.Sprintf("agent %v never connected to the zombie", node))
		return strings.Join(why, "; "), nil
	}
	var refused *mgmt.RefusedError
	if err := s.probe(zombie, node, pushPol); !errors.As(err, &refused) || !strings.Contains(refused.Reason, "stale term") {
		why = append(why, fmt.Sprintf("agent %v did not refuse the zombie's push (got %v)", node, err))
	}
	return strings.Join(why, "; "), nil
}
