package experiments

import (
	"fmt"
	"strconv"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/faultinject"
	"sdme/internal/ha"
	"sdme/internal/netaddr"
	"sdme/internal/topo"
)

// The scenario engine's seams. A fault story (scenario.go, survive.go) is
// written once, against the two interfaces below; a Backend supplies the
// implementation: the discrete-event simulator on virtual time
// (substrate_sim.go) or real sockets on wall time (substrate_live.go). A
// simulator's numbers stay honest only when the same scenario runs
// against the real substrate.

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

// trafficGapUS paces the workload: see Substrate.Offer.
const trafficGapUS = 500

// Totals is what a substrate has counted so far.
type Totals struct {
	// Injected / Delivered count workload packets; DroppedDown those lost
	// to the outage (blackholed at a down device on virtual time, offered
	// minus delivered on wall time).
	Injected, Delivered, DroppedDown int64
	// Failovers counts dataplane diversions to a backup candidate,
	// Invalidated the pinned soft-state entries purged.
	Failovers, Invalidated int64
	// Pushes, Reconnects and Epoch describe the management channel (zero
	// without one): pushes and push attempts, agent re-dials, the latest
	// epoch minted.
	Pushes, Reconnects int64
	Epoch              uint64
	// InSync: every surviving node runs the latest plan rolled out to it.
	InSync bool
}

// Substrate is the dataplane and its management channel, as a story
// drives them.
type Substrate interface {
	// NowUS is the substrate's clock: the event engine's virtual
	// microseconds or the wall's.
	NowUS() int64
	// Await lets time pass until cond holds (false: limitUS passed first).
	Await(limitUS int64, cond func() bool) bool
	// Offer starts the workload: every flow sends packetsPerFlow packets
	// trafficGapUS apart on virtual time; on wall time the flows take
	// turns, one packet every trafficGapUS, until Drain.
	Offer(flows []netaddr.FiveTuple, packetsPerFlow int) error
	// OnHealth registers who hears that a device went down or came back:
	// a modeled detection delay after the fault on virtual time, a health
	// monitor's probes on wall time. The dataplane's own liveness view
	// (local fast failover) follows the same transitions by itself.
	OnHealth(report func(id topo.NodeID, down bool))
	// Apply injects one fault now.
	Apply(ev faultinject.Event)
	// Play replays a schedule on the substrate's clock, calling apply at
	// each event's time, and returns once the last event has fired.
	Play(s *faultinject.Schedule, apply func(faultinject.Event))
	// Rollout applies a plan update to the nodes; a nil update rolls the
	// plane's whole plan out to nodes that hold none of it.
	Rollout(p Plane, upd *controller.PlanUpdate) error
	// RestartController kills the controller's management endpoint and
	// brings a new one up that numbers its epochs past resumeEpoch.
	RestartController(resumeEpoch uint64) error
	// Drain ends the workload and lets packets in flight land.
	Drain()
	Totals() Totals
	Close()
}

// leader is the promoted controller of a replica group: its plane, the
// journal replication streams from, and the state that journal replayed.
type leader struct {
	Plane
	id   int
	term uint64
	j    *controller.Journal
	st   *controller.JournalState
}

// promoteHook and demoteHook are how a replica group tells the story's
// harness that an election resolved. A promote error leaves the replica
// without a controller.
type (
	promoteHook func(id int, st *controller.JournalState, j *controller.Journal, term uint64) error
	demoteHook  func(id int)
)

// GroupTotals is what a replica group has counted so far.
type GroupTotals struct {
	// Trace is the promotion history "id@term@tUS;...".
	Trace string
	// Transitions sums the replicas' election role changes; StreamedBytes
	// is what the leaders' journals sent their standbys (the group's
	// sdme_election_transitions_total and
	// sdme_replication_streamed_bytes_total).
	Transitions, StreamedBytes int64
	// Agents is the size of the fleet the group manages (zero without a
	// management channel). Converged: every agent acked the leader's last
	// commit. Redirects/Reconnects: the agents' re-homing effort.
	Agents                int
	Converged             bool
	Redirects, Reconnects int64
}

// groupTotals reads the part of GroupTotals every backend takes from its
// ha.Group: the promotion trace and the two metric sums.
func groupTotals(g *ha.Group) GroupTotals {
	t := GroupTotals{StreamedBytes: g.Metrics().Counter(ha.MetricReplStreamedBytes).Value()}
	for _, p := range g.Promotions() {
		t.Trace += fmt.Sprintf("%d@%d@%d;", p.ID, p.Term, p.AtUS)
	}
	for id := 0; id < g.N(); id++ {
		t.Transitions += g.Metrics().Counter(ha.MetricElectionTransitions, "replica", strconv.Itoa(id)).Value()
	}
	return t
}

// group is a replicated controller: N replicas running the lease
// election and streaming the leader's journal, as the HA story drives it.
type group interface {
	NowUS() int64
	// Sleep lets us microseconds pass.
	Sleep(us int64)
	// Every calls fn each gapUS until the returned stop is called.
	Every(gapUS int64, fn func()) (stop func())
	// AwaitLeader lets time pass until a live replica leads at a term
	// >= minTerm and returns it with the time it was seen (id -1: limitUS
	// passed).
	AwaitLeader(limitUS int64, minTerm uint64) (id int, term uint64, atUS int64)
	// Kill takes a replica away from its peers.
	Kill(id int)
	// Commit makes the leader's plan durable and current: the next epoch
	// fenced under its term in the journal, a quorum holding the whole
	// journal, then the plan rolled out. It returns that epoch.
	Commit(l *leader, limitUS int64) (uint64, error)
	// Probe attempts one journaled plan push through the leader.
	Probe(l *leader) bool
	// StaleRefused resurrects a deposed leader's term-stamped output and
	// reports whether it was refused.
	StaleRefused(id int, term uint64) (bool, error)
	Totals() GroupTotals
	Close()
}

// Backend is one of the two things a story runs on.
type Backend struct {
	name string
	// leaseUS is the election lease the backend's clock can keep.
	leaseUS      int64
	newSubstrate func(site Site) (Substrate, error)
	newGroup     func(site Site, cfg HAConfig, dir string, promote promoteHook, demote demoteHook) (group, error)
}

func (b Backend) String() string { return b.name }

// Backends lists both, in the order result tables do.
var Backends = []Backend{Sim, Live}
