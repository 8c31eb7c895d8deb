package experiments

import (
	"errors"
	"fmt"
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
	"sdme/internal/packet"
	"sdme/internal/topo"
)

// Live runs a story over real sockets on loopback: UDP devices, the TCP
// management channel with its reconnect and epoch machinery, a health
// monitor, wall clocks. The numbers are approximate; the verdicts are
// exact.
var Live = Backend{
	name:         "live",
	leaseUS:      60_000, // what wall-clock timers can keep on a busy host
	newSubstrate: newLive,
	newGroup:     newLiveGroup,
}

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

func (c wallClock) Sleep(us int64) { time.Sleep(time.Duration(us) * time.Microsecond) }

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

// FullConfigs renders every node's installed configuration in wire form:
// the fallback map a rollout needs for nodes the server holds no base for.
func FullConfigs(nodes map[topo.NodeID]*enforce.Node) map[topo.NodeID]mgmt.ConfigDTO {
	out := make(map[topo.NodeID]mgmt.ConfigDTO, len(nodes))
	for id, n := range nodes {
		out[id] = mgmt.ConfigToDTO(0, n.Config())
	}
	return out
}

// rolloutPlan pushes the plane's whole current plan to a fleet whose
// server holds no base yet: a delta against the empty plan, carried by
// the full-configuration fallback, which it returns.
func rolloutPlan(srv *mgmt.Server, p Plane) (map[topo.NodeID]mgmt.ConfigDTO, error) {
	nodes, err := p.Ctl.BuildNodesFromPlan(p.Pipe.Plan())
	if err != nil {
		return nil, err
	}
	full := FullConfigs(nodes)
	deltas, _ := controller.DiffPlans(nil, p.Pipe.Plan())
	_, err = p.Pipe.Rollout(srv, deltas, full, pushPol)
	return full, err
}

// startFleet brings a fleet up under srv: a device per node, an agent per
// device, every agent connected.
func startFleet(nodes map[topo.NodeID]*enforce.Node, srv *mgmt.Server, opts mgmt.AgentOptions, limit time.Duration) (*Fleet, error) {
	f := NewFleet()
	err := f.Add(nodes)
	if err == nil {
		err = f.Connect(srv.Addr(), opts)
	}
	if err == nil {
		err = waitConnected(srv, limit, f.IDs)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// waitConnected bounds the wait for a fleet's agents to reach a server.
func waitConnected(srv *mgmt.Server, limit time.Duration, ids []topo.NodeID) error {
	if !srv.WaitConnected(limit, ids...) {
		return fmt.Errorf("experiments: agents did not reach %s: connected %v", srv.Addr(), srv.Connected())
	}
	return nil
}

// liveSubstrate is a Site on real sockets: a fleet, one management
// server, and a health monitor feeding the dataplane's liveness view.
type liveSubstrate struct {
	wallClock
	site    Site
	fleet   *Fleet
	server  *mgmt.Server
	reg     *metrics.Registry
	monitor *live.HealthMonitor
	sink    *live.Sink

	injected    atomic.Int64
	stopTraffic func()

	report atomic.Pointer[func(id topo.NodeID, down bool)]

	// mu guards the fault bookkeeping. It is never held across a call that
	// waits on a device: a repair can spend seconds awaiting an ack only
	// the unwedge event can release.
	mu       sync.Mutex
	crashed  map[topo.NodeID]bool
	releases map[topo.NodeID]func()
}

func newLive(site Site) (Substrate, error) {
	s := &liveSubstrate{
		wallClock:   newWallClock(),
		site:        site,
		stopTraffic: func() {},
		crashed:     make(map[topo.NodeID]bool),
		releases:    make(map[topo.NodeID]func()),
	}
	s.reg = metrics.NewRegistry(s.NowUS)
	err := s.listen("127.0.0.1:0")
	if err == nil {
		s.fleet, err = startFleet(site.Nodes, s.server, agentBackoff, 5*time.Second)
	}
	if err != nil {
		s.Close()
		return nil, err
	}
	s.monitor = s.fleet.Runtime.NewHealthMonitor(10*time.Millisecond, 2,
		func(id topo.NodeID) { s.health(id, true) },
		func(id topo.NodeID) { s.health(id, false) })
	s.monitor.Start()
	return s, nil
}

// listen starts the management server on addr.
func (s *liveSubstrate) listen(addr string) error {
	srv, err := mgmt.NewServer(addr, nil)
	if err != nil {
		return err
	}
	srv.SetMetrics(s.reg)
	srv.SetRepushPolicy(pushPol)
	s.server = srv
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
	if s.sink, err = s.fleet.Runtime.AddSink(dsts...); err != nil {
		return err
	}
	next := 0
	s.stopTraffic = s.Every(trafficGapUS, func() {
		ft := flows[next%len(flows)]
		next++
		proxyID, ok := s.site.Dep.ProxyFor(s.site.Dep.SubnetIndexOf(ft.Src))
		if ok && s.fleet.Runtime.Inject(s.site.Dep.AddrOf(proxyID), packet.New(ft, 64)) == nil {
			s.injected.Add(1)
		}
	})
	return nil
}

func (s *liveSubstrate) OnHealth(report func(id topo.NodeID, down bool)) { s.report.Store(&report) }

func (s *liveSubstrate) Apply(ev faultinject.Event) {
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
		s.server.DropConn(ev.Target)
	case faultinject.KindPartition:
		// A network partition between a node pair, seen from the
		// controller: both ends lose their management connection at once.
		// The agents' reconnect machinery heals both sides.
		s.server.DropConn(ev.Target)
		s.server.DropConn(topo.NodeID(ev.Param))
	}
}

func (s *liveSubstrate) Play(sched *faultinject.Schedule, apply func(faultinject.Event)) {
	driver := faultinject.NewLiveDriver(sched, apply)
	driver.Start()
	driver.Wait()
}

// Rollout pushes the update through the epoch-fenced two-phase protocol
// and, when the controller keeps a journal, fences the epoch it minted
// there.
func (s *liveSubstrate) Rollout(p Plane, upd *controller.PlanUpdate) error {
	var err error
	if upd == nil {
		_, err = rolloutPlan(s.server, p)
	} else {
		_, err = p.Pipe.Rollout(s.server, upd.Deltas, nil, pushPol)
	}
	if j := p.Ctl.Journal(); j != nil && (err == nil || errors.Is(err, mgmt.ErrCommitStraggler)) {
		err = errors.Join(err, j.LogEpoch(s.server.Epoch(), 0))
	}
	return err
}

func (s *liveSubstrate) RestartController(resumeEpoch uint64) error {
	addr := s.server.Addr()
	s.server.Close()
	// The old listener's port can linger briefly; retry the bind. The
	// surviving agents' reconnect loops find the new server there.
	var err error
	for i := 0; i < 50; i++ {
		if err = s.listen(addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("experiments: rebind %s: %w", addr, err)
	}
	s.server.ResumeEpoch(resumeEpoch)
	return waitConnected(s.server, 10*time.Second, s.fleet.IDs)
}

func (s *liveSubstrate) Drain() {
	s.stopTraffic()
	time.Sleep(50 * time.Millisecond) // packets in flight
}

func (s *liveSubstrate) Totals() Totals {
	t := Totals{Injected: s.injected.Load(), Epoch: s.server.Epoch()}
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
	t.Reconnects, _ = s.fleet.agentStats()
	// In sync: every survivor is connected and has acked the latest epoch
	// pushed to it.
	connected := make(map[topo.NodeID]bool)
	for _, id := range s.server.Connected() {
		connected[id] = true
	}
	t.InSync = s.server.Converged(survivors...)
	for _, id := range survivors {
		t.InSync = t.InSync && connected[id]
	}
	return t
}

func (s *liveSubstrate) Close() {
	s.stopTraffic()
	if s.monitor != nil {
		s.monitor.Stop()
	}
	if s.server != nil {
		s.server.Close()
	}
	if s.fleet != nil {
		s.fleet.Close()
	}
}

// liveGroup is an ha.Group over real sockets — a peer bus and a
// management server per replica — and the fleet whose agents know every
// server's address. A server is gated shut until its replica wins an
// election; the standbys bounce agents to the leader.
type liveGroup struct {
	wallClock
	site    Site
	servers []*mgmt.Server
	buses   []*mgmt.PeerBus
	fleet   *Fleet

	// A bus can deliver before the group is built; until then it drops the
	// envelope.
	group atomic.Pointer[ha.Group]
	// gates serializes the servers' leader-gate flips: the promotion hooks
	// fire on elector timer goroutines.
	gates sync.Mutex

	// pushing is the one-at-a-time turn a plan push takes, held for the
	// whole push: a probe's background epochs never race a commit's
	// two-phase accounting.
	pushing   chan struct{}
	full      map[topo.NodeID]mgmt.ConfigDTO
	converged bool
}

func newLiveGroup(site Site, cfg HAConfig, dir string, promote promoteHook, demote demoteHook) (group, error) {
	g := &liveGroup{wallClock: newWallClock(), site: site, pushing: make(chan struct{}, 1)}
	if err := g.start(cfg, dir, promote, demote); err != nil {
		g.Close()
		return nil, err
	}
	return g, nil
}

func (g *liveGroup) start(cfg HAConfig, dir string, promote promoteHook, demote demoteHook) error {
	busAddrs := make(map[int]string, cfg.Replicas)
	for i := 0; i < cfg.Replicas; i++ {
		srv, err := mgmt.NewServer("127.0.0.1:0", nil)
		if err != nil {
			return err
		}
		srv.SetNotLeader("")
		g.servers = append(g.servers, srv)
		i := i
		bus, err := mgmt.NewPeerBus(i, "127.0.0.1:0", func(env *mgmt.Envelope) {
			if grp := g.group.Load(); grp != nil {
				grp.Replica(i).Deliver(env)
			}
		})
		if err != nil {
			return err
		}
		g.buses = append(g.buses, bus)
		busAddrs[i] = bus.Addr()
	}
	for _, b := range g.buses {
		b.SetPeers(busAddrs)
	}
	grp, err := ha.NewGroup(ha.GroupConfig{
		N:         cfg.Replicas,
		Dir:       dir,
		LeaseUS:   cfg.leaseUS,
		Seed:      cfg.Seed,
		Clock:     g.wallClock,
		Transport: func(id int) ha.PeerTransport { return g.buses[id] },
		OnPromote: func(id int, st *controller.JournalState, j *controller.Journal, term uint64) {
			if promote(id, st, j, term) == nil {
				g.promoted(id, st.Epoch, term)
			}
		},
		OnDemote: func(id int, _ uint64) { g.demoted(id, demote) },
	})
	if err != nil {
		return err
	}
	g.group.Store(grp)
	return nil
}

// promoted opens the winner's server under the new term — epochs resumed
// past the replayed high-water — while every other server bounces agents
// to it.
func (g *liveGroup) promoted(id int, epoch, term uint64) {
	g.gates.Lock()
	defer g.gates.Unlock()
	srv := g.servers[id]
	srv.ResumeEpoch(epoch)
	srv.SetLeader(term)
	for k, other := range g.servers {
		if k != id {
			other.SetNotLeader(srv.Addr())
		}
	}
}

// demoted gates the deposed leader's server shut and sheds its agents —
// they re-home to the new leader through rotation and redirects.
func (g *liveGroup) demoted(id int, harness demoteHook) {
	harness(id)
	g.servers[id].SetNotLeader("")
	g.servers[id].DropAllConns()
}

func (g *liveGroup) AwaitLeader(limitUS int64, minTerm uint64) (int, uint64, int64) {
	var p ha.Promotion
	var ok bool
	if !g.Await(limitUS, func() bool {
		p, ok = g.group.Load().Leader()
		return ok && p.Term >= minTerm
	}) {
		return -1, 0, g.NowUS()
	}
	return p.ID, p.Term, p.AtUS
}

// Kill partitions the replica from its peers by closing its bus. It still
// believes it leads — until its lease starves and it deposes itself —
// which is exactly the split-brain window the fences close.
func (g *liveGroup) Kill(id int) { g.buses[id].Close() }

func (g *liveGroup) Commit(l *leader, limitUS int64) (uint64, error) {
	g.pushing <- struct{}{}
	defer func() { <-g.pushing }()
	limit := time.Duration(limitUS) * time.Microsecond
	srv := g.servers[l.id]
	var err error
	if g.fleet == nil {
		// The fleet comes up under the first leader: an agent's first dial
		// must reach a server whose gate is open. Every agent knows every
		// replica's server address; the gated standbys bounce it to the
		// leader.
		opts := agentBackoff
		opts.HealthyPeriod = 250 * time.Millisecond
		for _, s := range g.servers {
			opts.Addrs = append(opts.Addrs, s.Addr())
		}
		g.fleet, err = startFleet(g.site.Nodes, srv, opts, limit)
	} else {
		err = waitConnected(srv, limit, g.fleet.IDs)
	}
	if err != nil {
		return 0, err
	}
	if err := l.j.LogEpoch(srv.Epoch()+1, l.term); err != nil {
		return 0, err
	}
	repl := g.group.Load().Replica(l.id).Replicator()
	if repl == nil {
		return 0, fmt.Errorf("experiments: replica %d has no replicator", l.id)
	}
	if err := repl.WaitQuorum(l.j.Size(), limit); err != nil {
		return 0, fmt.Errorf("experiments: pre-rollout quorum: %w", err)
	}
	if g.full, err = rolloutPlan(srv, l.Plane); err != nil {
		return 0, err
	}
	g.converged = srv.Converged(g.fleet.IDs...)
	return srv.Epoch(), nil
}

// probe pushes an empty delta for one node through srv: an epoch
// heartbeat through the full prepare/commit path. A server that holds no
// base for the node yet (a new leader before its takeover rollout) stages
// the fallback instead.
func (g *liveGroup) probe(srv *mgmt.Server, pol mgmt.RetryPolicy) error {
	node := g.fleet.IDs[0]
	_, err := srv.PushAllDelta2PC(map[topo.NodeID]enforce.ConfigDelta{node: {}},
		map[topo.NodeID]mgmt.ConfigDTO{node: g.full[node]}, pol)
	return err
}

func (g *liveGroup) Probe(l *leader) bool {
	g.pushing <- struct{}{}
	defer func() { <-g.pushing }()
	srv := g.servers[l.id]
	return l.j.LogEpoch(srv.Epoch()+1, l.term) == nil &&
		g.probe(srv, mgmt.RetryPolicy{Attempts: 1, PerAttempt: 250 * time.Millisecond}) == nil
}

// StaleRefused checks both term fences. The deposed leader's own server
// refuses to push: its demotion gate closed before any agent could hear
// its stale term. Then it comes back as a zombie — its gate reopened at
// its dead term — and one agent is steered onto it by a redirect; the
// plan the zombie rolls out reaches that agent over a real connection,
// and the agent must refuse it. (This takes the current leader's server
// out of service.)
func (g *liveGroup) StaleRefused(old int, oldTerm uint64) (bool, error) {
	cur, ok := g.group.Load().Leader()
	if !ok || cur.ID == old {
		return false, fmt.Errorf("experiments: no successor to replica %d for the stale-push check", old)
	}
	zombie, leaderSrv := g.servers[old], g.servers[cur.ID]
	gated := live.WaitUntil(10*time.Second, func() bool {
		return errors.Is(g.probe(zombie, mgmt.RetryPolicy{Attempts: 1, PerAttempt: 100 * time.Millisecond}), mgmt.ErrNotLeader)
	})
	node := g.fleet.IDs[0]
	zombie.SetLeader(oldTerm)
	leaderSrv.SetNotLeader(zombie.Addr())
	leaderSrv.DropConn(node)
	if !zombie.WaitConnected(10*time.Second, node) {
		return false, nil
	}
	var refused *mgmt.RefusedError
	fenced := errors.As(g.probe(zombie, pushPol), &refused) && strings.Contains(refused.Reason, "stale term")
	return gated && fenced, nil
}

func (g *liveGroup) Totals() GroupTotals {
	t := groupTotals(g.group.Load())
	t.Converged = g.converged
	if g.fleet != nil {
		t.Agents = len(g.fleet.IDs)
		t.Reconnects, t.Redirects = g.fleet.agentStats()
	}
	return t
}

func (g *liveGroup) Close() {
	if grp := g.group.Load(); grp != nil {
		grp.Close()
	}
	if g.fleet != nil {
		g.fleet.Close()
	}
	for _, b := range g.buses {
		b.Close()
	}
	for _, s := range g.servers {
		s.Close()
	}
}
