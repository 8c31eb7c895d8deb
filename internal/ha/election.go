package ha

import (
	"encoding/json"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"sdme/internal/metrics"
	"sdme/internal/mgmt"
)

// Package ha replicates the controller (DESIGN §11): a lease election
// among N replicas (this file), the leader's journal streamed to its
// standbys (replicate.go), the replica that swaps between the two roles
// over one journal file (replica.go) and a group of them on an injected
// clock and transport (group.go). It sits under internal/controller,
// which knows nothing of it: a leader's controller sees only the
// *controller.Journal its promotion handed it.
//
// Lease-based leader election among N controller replicas.
// Replicas exchange LeaseRequest / LeaseGrant / Heartbeat envelopes —
// the same wire format the management channel uses — and at most one
// replica holds the leadership lease for any given term:
//
//   - a follower that hears no leader heartbeat within a randomized
//     election timeout becomes a candidate, increments the term, and bids
//     for the lease;
//   - each peer grants at most one lease per term, and only to a
//     candidate whose journal is at least as up-to-date as its own —
//     Raft's lexicographic (lastTerm, length) criterion, where lastTerm
//     is the term of the leader that last verifiably extended the
//     journal. Length alone would elect a deposed leader whose un-acked
//     tail outweighs a newer leader's quorum-acked records, losing them;
//   - a candidate with a quorum of grants (itself included) leads, and
//     refreshes the lease with periodic heartbeats;
//   - a leader that cannot hear a quorum of heartbeat replies within the
//     lease window deposes ITSELF — the other side of the partition has
//     (or will have) a newer term, and a self-deposed leader stops
//     pushing plans before its stale term could reach any agent.
//
// All timing flows through an injected ElectionClock, so the sim
// substrate runs whole election histories on virtual time and a takeover
// trace is a deterministic function of the seed.

// Role is a replica's position in the election state machine.
type Role int32

const (
	RoleFollower Role = iota
	RoleCandidate
	RoleLeader
)

// Election metric family names, labeled by replica.
const (
	MetricElectionRole        = "sdme_election_role"
	MetricElectionTerm        = "sdme_election_term"
	MetricElectionTransitions = "sdme_election_transitions_total"
)

// PeerTransport carries one envelope to a peer replica, best effort —
// the election tolerates loss (the next timeout or heartbeat retries).
type PeerTransport interface {
	Send(to int, env *mgmt.Envelope) error
}

// ElectionClock abstracts time for the elector: the sim substrate
// injects the virtual clock, live deployments use WallClock.
type ElectionClock interface {
	// NowUS is the current time in microseconds.
	NowUS() int64
	// AfterUS schedules fn after the delay; the returned cancel stops an
	// unfired timer (a fired or racing timer is tolerated — every
	// callback revalidates state under the elector's lock).
	AfterUS(delayUS int64, fn func()) (cancel func())
}

// WallClock is the live-substrate ElectionClock.
type WallClock struct{}

func (WallClock) NowUS() int64 { return time.Now().UnixMicro() }

func (WallClock) AfterUS(delayUS int64, fn func()) func() {
	t := time.AfterFunc(time.Duration(delayUS)*time.Microsecond, fn)
	return func() { t.Stop() }
}

// ElectorConfig configures one replica's elector.
type ElectorConfig struct {
	// ID is this replica's index; Peers lists the other replicas'.
	ID    int
	Peers []int
	// LeaseUS is the leadership lease in microseconds (default 150ms
	// worth). Election timeouts are drawn uniformly from [LeaseUS,
	// 2·LeaseUS); heartbeats fire every LeaseUS/3.
	LeaseUS int64
	// Seed drives the randomized election timeouts (default ID+1).
	Seed      int64
	Clock     ElectionClock
	Transport PeerTransport
	// Metrics receives the replica's role and term gauges and its
	// role-transition counter, labeled by replica id.
	Metrics *metrics.Registry
	// JournalBytes reports this replica's intact journal length for the
	// up-to-date check (nil = 0). JournalCRC reports the running CRC-32
	// over that prefix; leader heartbeats carry both so standbys detect
	// divergence, not just lag (nil = 0). JournalLastTerm reports the
	// term of the leader that last verifiably extended this replica's
	// journal (nil = 0); the up-to-date check compares (lastTerm, bytes)
	// lexicographically, never bytes alone.
	JournalBytes    func() int64
	JournalCRC      func() uint32
	JournalLastTerm func() uint64
	// OnLeader fires when this replica wins a term; OnDeposed fires when
	// a leader steps down (higher term seen, or lease quorum lost).
	// OnHeartbeat fires for each accepted leader heartbeat — the standby
	// replication hooks it to detect falling behind. All callbacks run
	// outside the elector's lock.
	OnLeader    func(term uint64)
	OnDeposed   func(term uint64)
	OnHeartbeat func(hb mgmt.Heartbeat)
}

func (c *ElectorConfig) fill() {
	if c.LeaseUS <= 0 {
		c.LeaseUS = 150_000
	}
	if c.Seed == 0 {
		c.Seed = int64(c.ID) + 1
	}
	if c.Clock == nil {
		c.Clock = WallClock{}
	}
}

// Elector is one replica's election state machine. Start it once; feed
// every election envelope from the peer transport to Deliver.
type Elector struct {
	cfg ElectorConfig
	// quorum is the number of lease grants (self included) needed to lead.
	quorum int

	mu     sync.Mutex
	role   Role
	term   uint64
	leader int // replica id, -1 unknown
	// grantedTerm/grantedTo record the one lease granted per term.
	grantedTerm uint64
	grantedTo   int
	votes       map[int]bool
	// ackAt is the leader's lease accounting: last heartbeat-reply time
	// per peer.
	ackAt       map[int]int64
	cancelTimer func()
	cancelHB    func()
	stopped     bool
	rng         *rand.Rand

	gRole, gTerm *metrics.Gauge
	cTransitions *metrics.Counter
}

// NewElector builds an elector; call Start to arm its first election
// timeout.
func NewElector(cfg ElectorConfig) *Elector {
	cfg.fill()
	replica := strconv.Itoa(cfg.ID)
	return &Elector{
		cfg:    cfg,
		quorum: majority(len(cfg.Peers)),
		leader: -1,
		votes:  make(map[int]bool),
		ackAt:  make(map[int]int64),
		rng:    rand.New(rand.NewSource(cfg.Seed)),

		gRole:        cfg.Metrics.Gauge(MetricElectionRole, "replica", replica),
		gTerm:        cfg.Metrics.Gauge(MetricElectionTerm, "replica", replica),
		cTransitions: cfg.Metrics.Counter(MetricElectionTransitions, "replica", replica),
	}
}

// majority is the quorum of a group of peers+1 replicas: what an election
// needs in lease grants and a record in durable copies, self included.
func majority(peers int) int { return (peers+1)/2 + 1 }

// Role returns the replica's current role.
func (e *Elector) Role() Role {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.role
}

// Term returns the replica's current term.
func (e *Elector) Term() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.term
}

// Leader returns the replica the elector believes leads (-1 unknown)
// and the term that belief is scoped to.
func (e *Elector) Leader() (id int, term uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.leader, e.term
}

// Start arms the first election timeout.
func (e *Elector) Start() {
	e.mu.Lock()
	e.resetTimerLocked()
	e.mu.Unlock()
}

// Stop halts the elector: timers are cancelled and every subsequent
// event is ignored. Used both for shutdown and to model a crashed
// replica.
func (e *Elector) Stop() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stopped = true
	if e.cancelTimer != nil {
		e.cancelTimer()
		e.cancelTimer = nil
	}
	if e.cancelHB != nil {
		e.cancelHB()
		e.cancelHB = nil
	}
}

// journalBytes reads the replica's intact journal length.
func (e *Elector) journalBytes() int64 {
	if e.cfg.JournalBytes == nil {
		return 0
	}
	return e.cfg.JournalBytes()
}

// journalCRC reads the running CRC over the replica's intact journal.
func (e *Elector) journalCRC() uint32 {
	if e.cfg.JournalCRC == nil {
		return 0
	}
	return e.cfg.JournalCRC()
}

// journalLastTerm reads the term of the leader that last verifiably
// extended the replica's journal.
func (e *Elector) journalLastTerm() uint64 {
	if e.cfg.JournalLastTerm == nil {
		return 0
	}
	return e.cfg.JournalLastTerm()
}

// resetTimerLocked (re)arms the election timeout with a fresh random
// draw from [LeaseUS, 2·LeaseUS).
func (e *Elector) resetTimerLocked() {
	if e.cancelTimer != nil {
		e.cancelTimer()
	}
	d := e.cfg.LeaseUS + e.rng.Int63n(e.cfg.LeaseUS)
	e.cancelTimer = e.cfg.Clock.AfterUS(d, e.onElectionTimeout)
}

// send queues one envelope to a peer, swallowing marshal and transport
// errors: both protocols retry by timeout.
func send(t PeerTransport, to int, typ string, v interface{}) {
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	_ = t.Send(to, &mgmt.Envelope{T: typ, Data: data})
}

// onElectionTimeout starts (or retries) an election.
func (e *Elector) onElectionTimeout() {
	e.mu.Lock()
	if e.stopped || e.role == RoleLeader {
		e.mu.Unlock()
		return
	}
	e.setRoleLocked(RoleCandidate)
	e.term++
	e.setTermLocked(e.term)
	e.grantedTerm = e.term
	e.grantedTo = e.cfg.ID
	e.votes = map[int]bool{e.cfg.ID: true}
	e.leader = -1
	var after func()
	if len(e.votes) >= e.quorum {
		after = e.becomeLeaderLocked()
		e.mu.Unlock()
		if after != nil {
			after()
		}
		return
	}
	e.resetTimerLocked()
	req := mgmt.LeaseRequest{
		Candidate:    e.cfg.ID,
		Term:         e.term,
		JournalBytes: e.journalBytes(),
		LastTerm:     e.journalLastTerm(),
	}
	peers := append([]int(nil), e.cfg.Peers...)
	e.mu.Unlock()
	for _, p := range peers {
		send(e.cfg.Transport, p, mgmt.TypeLeaseRequest, req)
	}
}

// becomeLeaderLocked flips the replica to leader for the current term
// and returns the callback to fire outside the lock.
func (e *Elector) becomeLeaderLocked() func() {
	e.setRoleLocked(RoleLeader)
	e.leader = e.cfg.ID
	if e.cancelTimer != nil {
		e.cancelTimer()
		e.cancelTimer = nil
	}
	now := e.cfg.Clock.NowUS()
	for _, p := range e.cfg.Peers {
		e.ackAt[p] = now
	}
	e.scheduleHeartbeatLocked(0)
	term := e.term
	cb := e.cfg.OnLeader
	if cb == nil {
		return nil
	}
	return func() { cb(term) }
}

// scheduleHeartbeatLocked arms the leader's next heartbeat tick.
func (e *Elector) scheduleHeartbeatLocked(delayUS int64) {
	if e.cancelHB != nil {
		e.cancelHB()
	}
	e.cancelHB = e.cfg.Clock.AfterUS(delayUS, e.onHeartbeatTick)
}

// onHeartbeatTick refreshes the lease: verify a quorum of followers
// answered within the lease window, then broadcast the next heartbeat.
func (e *Elector) onHeartbeatTick() {
	e.mu.Lock()
	if e.stopped || e.role != RoleLeader {
		e.mu.Unlock()
		return
	}
	now := e.cfg.Clock.NowUS()
	alive := 1 // self
	for _, p := range e.cfg.Peers {
		if now-e.ackAt[p] <= e.cfg.LeaseUS {
			alive++
		}
	}
	if alive < e.quorum {
		// Lease lost: a partition separates this leader from its quorum.
		// Self-depose before a newer term's leader and this one disagree at
		// the agents.
		after := e.stepDownLocked(e.term)
		e.mu.Unlock()
		if after != nil {
			after()
		}
		return
	}
	e.scheduleHeartbeatLocked(max(e.cfg.LeaseUS/3, 1))
	hb := mgmt.Heartbeat{Leader: e.cfg.ID, Term: e.term, JournalBytes: e.journalBytes(), JournalCRC: e.journalCRC()}
	peers := append([]int(nil), e.cfg.Peers...)
	e.mu.Unlock()
	for _, p := range peers {
		send(e.cfg.Transport, p, mgmt.TypeHeartbeat, hb)
	}
}

// stepDownLocked demotes a leader (or candidate) to follower at the
// given term, rearming the election timeout. It returns the OnDeposed
// callback to fire outside the lock (nil if the replica did not lead).
func (e *Elector) stepDownLocked(term uint64) func() {
	wasLeader := e.role == RoleLeader
	e.setRoleLocked(RoleFollower)
	e.leader = -1
	if e.cancelHB != nil {
		e.cancelHB()
		e.cancelHB = nil
	}
	e.resetTimerLocked()
	if !wasLeader || e.cfg.OnDeposed == nil {
		return nil
	}
	cb := e.cfg.OnDeposed
	return func() { cb(term) }
}

// adoptTermLocked advances to a higher term observed on the wire,
// stepping down if leading. Returns the deposition callback (nil often).
func (e *Elector) adoptTermLocked(term uint64) func() {
	old := e.term
	e.setTermLocked(term)
	return e.stepDownLockedIfNeeded(old)
}

func (e *Elector) stepDownLockedIfNeeded(oldTerm uint64) func() {
	if e.role == RoleFollower && e.leader == -1 {
		// Already a leaderless follower: just rearm the timeout.
		e.resetTimerLocked()
		return nil
	}
	return e.stepDownLocked(oldTerm)
}

func (e *Elector) setRoleLocked(r Role) {
	if e.role != r {
		e.cTransitions.Inc()
	}
	e.role = r
	e.gRole.Set(float64(r))
}

func (e *Elector) setTermLocked(t uint64) {
	e.term = t
	e.gTerm.Set(float64(t))
}

// Deliver feeds one election envelope from the peer transport.
// Unknown envelope types are ignored (the caller routes replication
// types to the Replicator / Standby instead).
func (e *Elector) Deliver(env *mgmt.Envelope) {
	switch env.T {
	case mgmt.TypeLeaseRequest:
		var req mgmt.LeaseRequest
		if json.Unmarshal(env.Data, &req) != nil || req.Validate() != nil {
			return
		}
		e.handleLeaseRequest(req)
	case mgmt.TypeLeaseGrant:
		var g mgmt.LeaseGrant
		if json.Unmarshal(env.Data, &g) != nil || g.Validate() != nil {
			return
		}
		e.handleLeaseGrant(g)
	case mgmt.TypeHeartbeat:
		var hb mgmt.Heartbeat
		if json.Unmarshal(env.Data, &hb) != nil || hb.Validate() != nil {
			return
		}
		e.handleHeartbeat(hb)
	}
}

func (e *Elector) handleLeaseRequest(req mgmt.LeaseRequest) {
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return
	}
	var after func()
	if req.Term > e.term {
		after = e.adoptTermLocked(req.Term)
	}
	// Raft's up-to-date criterion on (lastTerm, length): a candidate with
	// a staler lastTerm is refused no matter how long its journal — a
	// deposed leader's un-acked tail must never outvote a newer leader's
	// quorum-acked records.
	upToDate := req.LastTerm > e.journalLastTerm() ||
		(req.LastTerm == e.journalLastTerm() && req.JournalBytes >= e.journalBytes())
	granted := false
	if req.Term == e.term && e.role != RoleLeader &&
		(e.grantedTerm < req.Term || (e.grantedTerm == req.Term && e.grantedTo == req.Candidate)) &&
		upToDate {
		granted = true
		e.grantedTerm = req.Term
		e.grantedTo = req.Candidate
		// Granting a lease is a promise not to bid for its duration.
		e.resetTimerLocked()
	}
	reply := mgmt.LeaseGrant{Voter: e.cfg.ID, Term: e.term, Granted: granted}
	e.mu.Unlock()
	if after != nil {
		after()
	}
	send(e.cfg.Transport, req.Candidate, mgmt.TypeLeaseGrant, reply)
}

func (e *Elector) handleLeaseGrant(g mgmt.LeaseGrant) {
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return
	}
	var after func()
	switch {
	case g.Term > e.term:
		after = e.adoptTermLocked(g.Term)
	case g.Granted && g.Term == e.term && e.role == RoleCandidate:
		e.votes[g.Voter] = true
		if len(e.votes) >= e.quorum {
			after = e.becomeLeaderLocked()
		}
	}
	e.mu.Unlock()
	if after != nil {
		after()
	}
}

func (e *Elector) handleHeartbeat(hb mgmt.Heartbeat) {
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return
	}
	if hb.Reply {
		// A follower's answer. A higher term in it deposes us; otherwise it
		// refreshes the lease accounting.
		var after func()
		if hb.Term > e.term {
			after = e.adoptTermLocked(hb.Term)
		} else if e.role == RoleLeader && hb.Term == e.term {
			e.ackAt[hb.Leader] = e.cfg.Clock.NowUS()
		}
		e.mu.Unlock()
		if after != nil {
			after()
		}
		return
	}
	if hb.Term < e.term {
		// Stale leader: answer with our term so it learns it was deposed.
		reply := mgmt.Heartbeat{Leader: e.cfg.ID, Term: e.term, Reply: true}
		e.mu.Unlock()
		send(e.cfg.Transport, hb.Leader, mgmt.TypeHeartbeat, reply)
		return
	}
	if hb.Term == e.term && e.role == RoleLeader {
		// Two leaders in one term is impossible (each peer grants one lease
		// per term and quorums intersect); a replayed frame is ignored.
		e.mu.Unlock()
		return
	}
	var after func()
	if hb.Term > e.term {
		after = e.adoptTermLocked(hb.Term)
	} else if e.role == RoleCandidate {
		// Same term: the sender won the lease this replica bid for.
		// stepDownLocked fires no deposition callback for a candidate.
		after = e.stepDownLocked(e.term)
	}
	e.leader = hb.Leader
	e.resetTimerLocked()
	reply := mgmt.Heartbeat{Leader: e.cfg.ID, Term: e.term, JournalBytes: e.journalBytes(), Reply: true}
	onHB := e.cfg.OnHeartbeat
	e.mu.Unlock()
	if after != nil {
		after()
	}
	send(e.cfg.Transport, hb.Leader, mgmt.TypeHeartbeat, reply)
	if onHB != nil {
		onHB(hb)
	}
}
