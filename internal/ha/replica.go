package ha

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"

	"sdme/internal/controller"
	"sdme/internal/metrics"
	"sdme/internal/mgmt"
)

// unmarshalValid decodes a peer envelope payload and validates it.
func unmarshalValid(data []byte, v interface{ Validate() error }) error {
	if err := json.Unmarshal(data, v); err != nil {
		return err
	}
	return v.Validate()
}

// Replica glues one replica's elector to its journal — one file, opened
// once and held for life — and swaps roles over it as elections resolve:
//
//   standby:  a Standby applies streamed frames to the journal, and
//             heartbeats drive catch-up/resync;
//   leader:   the journal is lent to a Writer handle: the state it
//             replays and that handle seed the controller (via OnPromote),
//             a Replicator streams every Append to the standbys, and the
//             journal refuses frames and truncations until the handle is
//             closed at deposition.
//
// So takeover is literally the restart path: replay what replication
// delivered, restore, resume epoch numbering past the term-fenced
// high-water mark.
//
// Lock ordering: the elector reads the journal's length, CRC and term
// fence under its own lock through hooks that take no lock at all, and
// fires promote/demote outside it; nothing here calls the elector while
// holding r.mu.

// ReplicaConfig configures one replica of the replicated controller.
type ReplicaConfig struct {
	ID          int
	Peers       []int
	JournalPath string
	Transport   PeerTransport
	// Election timing (see ElectorConfig); zero values take defaults.
	LeaseUS int64
	Seed    int64
	Clock   ElectionClock
	// OnPromote fires (outside all replica locks) when this replica wins
	// a term: st is the replayed journal state, j the handle the leader
	// appends through — it refuses every Append once the replica is
	// deposed. The harness rebuilds its controller from st, attaches j,
	// and resumes epochs past st.Epoch under term fencing.
	OnPromote func(st *controller.JournalState, j *controller.Journal, term uint64)
	// OnDemote fires (outside all replica locks) when this replica is
	// deposed; the harness must stop pushing plans with the old term.
	OnDemote func(term uint64)
	// Metrics receives the election and replication families.
	Metrics *metrics.Registry
}

// Replica is one member of the replicated controller group.
type Replica struct {
	cfg     ReplicaConfig
	j       *controller.Journal
	elector *Elector
	standby *Standby
	// lastTerm is the term of the leader that last verifiably extended
	// this replica's journal — the election up-to-date fence (Raft's
	// "term of last log entry"). It is persisted across restarts by the
	// term-marker epoch record every new leader appends at promotion
	// (recovered here by replaying the journal), advances when the standby
	// proves its journal a prefix of a newer leader's, and gates both
	// lease grants and incoming frames.
	lastTerm atomic.Uint64

	mu     sync.Mutex
	w      *controller.Journal // leader role: the lent append handle
	repl   *Replicator         // leader role, nil while standing by
	closed bool
}

// NewReplica builds a replica in the standby role. Call Start to arm its
// election timeout.
func NewReplica(cfg ReplicaConfig) (*Replica, error) {
	// Recover the journal's term fence: the highest term any replayed
	// epoch record carries. Every leader appends a term-marker epoch
	// record at promotion before any other record of its term, so this is
	// exactly the term of the leader that last extended the journal.
	j, err := controller.OpenJournal(cfg.JournalPath)
	if err != nil {
		return nil, err
	}
	st, err := j.Replay()
	if err != nil {
		_ = j.Close()
		return nil, err
	}
	r := &Replica{cfg: cfg, j: j}
	r.lastTerm.Store(st.Term)
	r.elector = NewElector(ElectorConfig{
		ID:              cfg.ID,
		Peers:           cfg.Peers,
		LeaseUS:         cfg.LeaseUS,
		Seed:            cfg.Seed,
		Clock:           cfg.Clock,
		Transport:       cfg.Transport,
		Metrics:         cfg.Metrics,
		JournalBytes:    j.Size,
		JournalCRC:      j.CRC,
		JournalLastTerm: r.lastTerm.Load,
		OnLeader:        r.promote,
		OnDeposed:       r.demote,
		OnHeartbeat:     r.onLeaderHeartbeat,
	})
	r.standby = NewStandby(StandbyConfig{
		ID:         cfg.ID,
		Transport:  cfg.Transport,
		Metrics:    cfg.Metrics,
		Term:       r.elector.Term,
		LastTerm:   r.lastTerm.Load,
		OnVerified: r.noteVerifiedTerm,
	}, j)
	return r, nil
}

// Elector returns the replica's election state machine.
func (r *Replica) Elector() *Elector { return r.elector }

// Replicator returns the leader-side replicator, nil while standing by.
func (r *Replica) Replicator() *Replicator {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.repl
}

// Journal returns the leader's append handle, nil while standing by.
func (r *Replica) Journal() *controller.Journal {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.w
}

// JournalBytes reports the replica's intact journal length, JournalCRC the
// running CRC over it, whichever role writes the file.
func (r *Replica) JournalBytes() int64 { return r.j.Size() }
func (r *Replica) JournalCRC() uint32  { return r.j.CRC() }

// noteVerifiedTerm advances the journal's term fence after the standby
// proves its journal a prefix of the term-`term` leader's, or a
// promotion's term marker lands.
func (r *Replica) noteVerifiedTerm(term uint64) {
	for old := r.lastTerm.Load(); term > old; old = r.lastTerm.Load() {
		if r.lastTerm.CompareAndSwap(old, term) {
			return
		}
	}
}

// Start arms the replica's first election timeout.
func (r *Replica) Start() { r.elector.Start() }

// Stop halts the replica: the elector ignores all further events and
// the journal is closed, the lent handle with it. Models a crashed
// replica.
func (r *Replica) Stop() {
	r.elector.Stop()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	if r.repl != nil {
		r.repl.Detach()
		r.repl, r.w = nil, nil
	}
	//vet:ignore lockedblocking -- crash-stop is atomic: Deliver must never find a half-closed journal
	_ = r.j.Close()
}

// promote swaps standby → leader for the given term: take the journal's
// writer handle (from here no frame can land), replay what replication
// delivered, attach a replicator fenced at the winning term, then hand
// the replayed state and the handle to the harness.
func (r *Replica) promote(term uint64) {
	r.mu.Lock()
	if r.closed || r.repl != nil {
		r.mu.Unlock()
		return
	}
	w := r.j.Writer()
	//vet:ignore lockedblocking -- takeover is atomic: a deposition must not land between the replay and the term marker
	st, err := w.Replay()
	if err != nil {
		r.mu.Unlock()
		panic(fmt.Sprintf("ha: replica %d takeover replay: %v", r.cfg.ID, err))
	}
	r.w = w
	r.repl = NewReplicator(ReplicatorConfig{
		ID:        r.cfg.ID,
		Peers:     r.cfg.Peers,
		Transport: r.cfg.Transport,
		Metrics:   r.cfg.Metrics,
		// The term is fixed for this replicator's lifetime: a deposed
		// leader tears it down and any frame it raced out carries the old
		// term, which standbys refuse.
		Term: func() uint64 { return term },
	}, w)
	// Term marker — Raft's no-op entry at the start of a term. Appending
	// an epoch record fenced with the winning term (epoch unchanged)
	// before any other record of this term persists the journal's term
	// fence: a replica that replays this journal — after a crash, or as a
	// standby that replicated it — recovers lastTerm = term, so a deposed
	// leader's longer-but-staler journal can never win a later election
	// over it on length alone.
	//vet:ignore lockedblocking -- the marker must be the term's first record, before any append can race the role swap
	if err := w.LogEpoch(st.Epoch, term); err != nil {
		r.mu.Unlock()
		panic(fmt.Sprintf("ha: replica %d term marker append: %v", r.cfg.ID, err))
	}
	r.noteVerifiedTerm(term)
	cb := r.cfg.OnPromote
	r.mu.Unlock()
	if cb != nil {
		cb(st, w, term)
	}
}

// demote swaps leader → standby after deposition: the replicator comes
// off and the lent handle is closed, which is both the fence on the
// deposed controller and what lets the new leader's frames land again.
func (r *Replica) demote(term uint64) {
	r.mu.Lock()
	if r.closed || r.repl == nil {
		r.mu.Unlock()
		return
	}
	r.repl.Detach()
	//vet:ignore lockedblocking -- a writer handle's Close hands the file back: no I/O, and it cannot fail
	_ = r.w.Close()
	r.repl, r.w = nil, nil
	cb := r.cfg.OnDemote
	r.mu.Unlock()
	if cb != nil {
		cb(term)
	}
}

// standing reports whether the replica is in the standby role.
func (r *Replica) standing() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return !r.closed && r.repl == nil
}

// onLeaderHeartbeat routes an accepted leader heartbeat to the standby
// replication logic (catch-up / resync). Fired by the elector outside
// its lock.
func (r *Replica) onLeaderHeartbeat(hb mgmt.Heartbeat) {
	if r.standing() {
		r.standby.HandleHeartbeat(hb)
	}
}

// Deliver routes one peer envelope: election traffic to the elector,
// frames to the standby, acks and fetches to the replicator. Envelopes
// for the role the replica is not in are dropped (stale by definition);
// one that slips past a role swap in flight is refused by the journal.
func (r *Replica) Deliver(env *mgmt.Envelope) {
	switch env.T {
	case mgmt.TypeLeaseRequest, mgmt.TypeLeaseGrant, mgmt.TypeHeartbeat:
		r.elector.Deliver(env)
	case mgmt.TypeJournalFrame:
		var f mgmt.JournalFrame
		if unmarshalValid(env.Data, &f) == nil && r.standing() {
			r.standby.HandleFrame(f)
		}
	case mgmt.TypeJournalAck:
		var a mgmt.JournalAck
		if repl := r.Replicator(); repl != nil && unmarshalValid(env.Data, &a) == nil {
			repl.HandleAck(a)
		}
	case mgmt.TypeJournalFetch:
		var f mgmt.JournalFetch
		if repl := r.Replicator(); repl != nil && unmarshalValid(env.Data, &f) == nil {
			repl.HandleFetch(f)
		}
	}
}
