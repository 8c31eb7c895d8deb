package experiments

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/faultinject"
	"sdme/internal/ha"
	"sdme/internal/netaddr"
	"sdme/internal/topo"
)

// The scenario engine's seam. A fault story (scenario.go) is written once,
// against the interface below; a Backend supplies the implementation: the
// discrete-event simulator on virtual time (substrate_sim.go) or real
// sockets on wall time (substrate_live.go). A simulator's numbers stay
// honest only when the same scenario runs against the real substrate.

// Site is what a substrate is built over: the topology, its middlebox
// deployment, and the enforcement nodes built from the first plan.
type Site struct {
	Graph *topo.Graph
	Dep   *enforce.Deployment
	Nodes map[topo.NodeID]*enforce.Node
}

// Plane is one controller incarnation: the controller and the pipeline
// that compiles its plans. A restart or a takeover makes a new one.
type Plane struct {
	Ctl  *controller.Controller
	Pipe *controller.Pipeline
}

// Lead is a leadership change as a substrate reports it: which replica
// leads from now on, under which election term (both 0 for an unreplicated
// controller) and since when, and the journal its controller must resume,
// with the state replayed from it (nil: the story keeps no journal).
type Lead struct {
	// N numbers the substrate's leadership changes from 1.
	N       int
	ID      int
	Term    uint64
	AtUS    int64
	State   *controller.JournalState
	Journal *controller.Journal
}

// trafficGapUS paces the workload, see Substrate.Offer; each of its
// packets carries trafficPayload bytes of payload.
const (
	trafficGapUS   = 500
	trafficPayload = 256
)

// awaitUS bounds every wait of a story on the substrate's clock.
const awaitUS = 15_000_000

// Totals is what a substrate has counted so far.
type Totals struct {
	// Injected / Delivered count workload packets; DroppedDown those lost
	// to the outage (blackholed at a down device on virtual time, offered
	// minus delivered on wall time).
	Injected, Delivered, DroppedDown int64
	// Failovers counts dataplane diversions to a backup candidate,
	// Invalidated the pinned soft-state entries purged.
	Failovers, Invalidated int64
	// Pushes, Reconnects, Redirects and Epoch describe the management
	// channel (zero without one): pushes and push attempts, agent re-dials
	// and re-homings, the latest epoch minted. Agents is the size of the
	// fleet it manages.
	Pushes, Reconnects, Redirects int64
	Epoch                         uint64
	Agents                        int
	// InSync: every surviving node runs the latest plan rolled out to it.
	InSync bool
	// Lead is the Lead.N of the leadership now in force (0: nobody leads).
	Lead int
	// Kills counts the leaders a schedule has taken out, TakeoverMaxUS the
	// worst kill→next promotion latency among them. KillsMissed counts the
	// leader kills that found nobody leading (an election under way) and
	// so took nobody out.
	Kills, KillsMissed int
	TakeoverMaxUS      int64
	// Trace is a replica group's promotion history "id@term@tUS;...";
	// Transitions sums the replicas' election role changes, StreamedBytes
	// what the leaders' journals sent their standbys (the group's
	// sdme_election_transitions_total and
	// sdme_replication_streamed_bytes_total).
	Trace                      string
	Transitions, StreamedBytes int64
}

// Substrate is the dataplane, its management channel and the control plane
// that drives them, as a story sees them. What it reports (OnHealth,
// OnLead, Every) it delivers where the answer may wait on the substrate's
// clock: one report at a time on virtual time; each on a goroutine of the
// substrate's on wall time, where the story serializes them.
type Substrate interface {
	// NowUS is the substrate's clock: the event engine's virtual
	// microseconds or the wall's.
	NowUS() int64
	// Await lets time pass until cond holds (false: limitUS passed first).
	Await(limitUS int64, cond func() bool) bool
	// Every reports each gapUS, the next gap starting once the story has
	// answered, until the returned stop is called.
	Every(gapUS int64, report func()) (stop func())
	// Offer starts the workload now: on virtual time every flow sends
	// packetsPerFlow packets trafficGapUS apart, flow i starting i·97 µs
	// after the offer; on wall time the flows take turns, one packet every
	// trafficGapUS, until Drain.
	Offer(flows []netaddr.FiveTuple, packetsPerFlow int) error
	// OnHealth registers who hears that a device went down or came back:
	// a modeled detection delay after the fault on virtual time, a health
	// monitor's probes on wall time. The dataplane's own liveness view
	// (local fast failover) follows the same transitions by itself.
	OnHealth(report func(id topo.NodeID, down bool))
	// OnLead registers who hears that a controller starts to lead: the
	// first election's winner, a takeover's, a restarted controller. One
	// that leads already is reported at once.
	OnLead(report func(Lead))
	// Apply injects one fault now. An error is the substrate's own
	// failure to stage the fault, not the fault's effect.
	Apply(ev faultinject.Event) error
	// Play replays a schedule on the substrate's clock, calling apply at
	// each event's time, and returns once the last event has fired.
	Play(s *faultinject.Schedule, apply func(faultinject.Event))
	// Rollout is the one way a plan becomes current. Write-ahead: the next
	// epoch is fenced in the plane's journal under the leader's term, a
	// replica group's quorum holds the whole journal, and only then does
	// the update reach the nodes; a nil update rolls the plane's whole
	// plan out. A plane that no longer leads gets errDeposed.
	Rollout(p Plane, upd *controller.PlanUpdate) error
	// StaleRefused resurrects a deposed leader's term-stamped output. It
	// returns "" if the output was refused, and otherwise what the check
	// saw instead.
	StaleRefused(id int, term uint64) (string, error)
	// Drain ends the workload and lets packets in flight land.
	Drain()
	Totals() Totals
	Close()
}

// errDeposed answers a rollout from a controller that does not lead (any
// more): killed, restarted under, or voted out since its plane was built.
var errDeposed = errors.New("experiments: the controller no longer leads")

// journaled passes on the error of a plane's journal write, a closed
// journal as errDeposed: a replica closes the writer it lent its
// controller when it is voted out or stopped, so a write can find it
// closed any time after the controller resumed it.
func journaled(err error) error {
	if errors.Is(err, controller.ErrJournalClosed) {
		return fmt.Errorf("%w: %w", errDeposed, err)
	}
	return err
}

// leadership is the part of a substrate that knows who leads: what its
// control plane's hooks feed, what OnLead and Rollout read, and the leader
// kills of a schedule.
type leadership struct {
	now func() int64
	// raise has a report answered where waiting is allowed: off the
	// engine's event on virtual time, off the elector's goroutine on wall
	// time.
	raise func(report func())
	// group is the replica group, nil around one unreplicated controller;
	// kill takes one of its replicas away from its peers.
	group atomic.Pointer[ha.Group]
	kill  func(id int)

	mu      sync.Mutex
	last    Lead       // the latest to lead
	leading bool       // and whether it still does
	hear    func(Lead) // who OnLead registered
	kills   []int64    // when each leader kill landed
	missed  int        // leader kills that found nobody leading
}

// promoted records a leadership change and reports it.
func (ls *leadership) promoted(l Lead) {
	ls.mu.Lock()
	l.N, l.AtUS = ls.last.N+1, ls.now()
	ls.last, ls.leading = l, true
	hear := ls.hear
	ls.mu.Unlock()
	if hear != nil {
		ls.raise(func() { hear(l) })
	}
}

// reopen brings an unreplicated controller up over whatever an earlier
// incarnation left in the journal at path.
func (ls *leadership) reopen(path string) error {
	j, err := controller.OpenJournal(path)
	if err != nil {
		return err
	}
	st, err := j.Replay()
	if err != nil {
		return errors.Join(err, j.Close())
	}
	ls.promoted(Lead{State: st, Journal: j})
	return nil
}

// demoted forgets a leader that was voted out.
func (ls *leadership) demoted(id int, term uint64) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.last.ID == id && ls.last.Term == term {
		ls.leading = false
	}
}

// depose forgets the leader a fault is about to take out and returns it
// (false: nobody leads).
func (ls *leadership) depose() (Lead, bool) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	was := ls.leading
	ls.leading = false
	return ls.last, was
}

// killLeader is Apply(KindLeaderKill): whoever leads a replica group at
// this instant is taken from its peers. When nobody leads, nobody is
// taken, and the kill counts as missed.
func (ls *leadership) killLeader() {
	if ls.group.Load() == nil {
		return
	}
	l, ok := ls.depose()
	ls.mu.Lock()
	if !ok {
		ls.missed++
		ls.mu.Unlock()
		return
	}
	ls.kills = append(ls.kills, ls.now())
	ls.mu.Unlock()
	ls.kill(l.ID)
}

func (ls *leadership) OnLead(report func(Lead)) {
	ls.mu.Lock()
	ls.hear = report
	l, ok := ls.last, ls.leading
	ls.mu.Unlock()
	if ok {
		ls.raise(func() { report(l) })
	}
}

// leader returns the latest controller to lead, and whether it still does.
func (ls *leadership) leader() (Lead, bool) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.last, ls.leading
}

// leadOf returns the leadership p's controller holds, or errDeposed. A
// controller without a journal is the bed's own and leads whenever anyone
// does.
func (ls *leadership) leadOf(p Plane) (Lead, error) {
	l, ok := ls.leader()
	if !ok || (l.Journal != nil && l.Journal != p.Ctl.Journal()) {
		return Lead{}, errDeposed
	}
	return l, nil
}

// count fills the leadership part of a substrate's totals.
func (ls *leadership) count(t *Totals) {
	ls.mu.Lock()
	if ls.leading {
		t.Lead = ls.last.N
	}
	kills := ls.kills
	t.KillsMissed = ls.missed
	ls.mu.Unlock()
	t.Kills = len(kills)
	g := ls.group.Load()
	if g == nil {
		return
	}
	t.StreamedBytes = g.Metrics().Counter(ha.MetricReplStreamedBytes).Value()
	for id := 0; id < g.N(); id++ {
		t.Transitions += g.Metrics().Counter(ha.MetricElectionTransitions, "replica", strconv.Itoa(id)).Value()
	}
	proms := g.Promotions()
	for _, p := range proms {
		t.Trace += fmt.Sprintf("%d@%d@%d;", p.ID, p.Term, p.AtUS)
	}
	for _, killUS := range kills {
		for _, p := range proms {
			if p.AtUS > killUS {
				t.TakeoverMaxUS = max(t.TakeoverMaxUS, p.AtUS-killUS)
				break
			}
		}
	}
}

// awaitQuorum is stream-before-ack: a record counts as durable once a
// quorum of the group holds the leader's whole journal.
func (ls *leadership) awaitQuorum(sub Substrate, l Lead) error {
	deposed := false
	reached := sub.Await(awaitUS, func() bool {
		repl := ls.group.Load().Replica(l.ID).Replicator()
		deposed = repl == nil
		return deposed || repl.QuorumBytes() >= l.Journal.Size()
	})
	switch {
	case deposed:
		return errDeposed
	case !reached:
		return fmt.Errorf("experiments: replica %d's journal never reached quorum", l.ID)
	}
	return nil
}

// Backend is one of the two things a story runs on.
type Backend struct {
	name string
	// leaseUS is the election lease the backend's clock can keep.
	leaseUS int64
	// newSubstrate brings up sc's control plane — Replicas, Seed — beside
	// the site's dataplane; journals live in dir ("": none is kept).
	newSubstrate func(site Site, sc Scenario, dir string) (Substrate, error)
	// conform brings a conformance run's dataplane up over the site, its
	// nodes reporting to tracer, for flows to cross.
	conform func(site Site, flows []netaddr.FiveTuple, tracer *enforce.RuntimeTracer) (*conformPlane, error)
}

func (b Backend) String() string { return b.name }

// Backends lists both, in the order result tables do.
var Backends = []Backend{Sim, Live}
