package controller

import (
	"encoding/json"
	"fmt"
	"sync"

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

// HAReplica glues one replica's elector to its journal machinery and
// swaps roles as elections resolve:
//
//   standby:  StandbyJournal + Standby — streamed frames append to the
//             local journal file, heartbeats drive catch-up/resync;
//   leader:   ReplayJournal + OpenJournal + Replicator — the replayed
//             state seeds the controller (via OnPromote), and every
//             subsequent Append streams to the standbys.
//
// The same journal file backs both roles, so takeover is literally the
// PR-5 restart path: replay what replication delivered, restore, resume
// epoch numbering past the term-fenced high-water mark.
//
// Lock ordering: the elector calls the JournalBytes/JournalCRC hooks
// under its own lock, and those hooks take ha.mu — so e.mu precedes
// ha.mu, and NOTHING here may call an elector method while holding
// ha.mu (terms are passed by value into role-scoped closures instead).

// HAReplicaConfig configures one replica of the replicated controller.
type HAReplicaConfig struct {
	ID    int
	Peers []int
	// Quorum applies to both the election and journal replication;
	// 0 = majority of len(Peers)+1.
	Quorum      int
	JournalPath string
	Transport   PeerTransport
	// Election timing (see ElectorConfig); zero values take defaults.
	LeaseUS int64
	Seed    int64
	Clock   ElectionClock
	// OnPromote fires (outside all replica locks) when this replica wins
	// a term: st is the replayed journal state, j the reopened leader
	// journal. The harness rebuilds its controller from st, attaches j,
	// and resumes epochs past st.Epoch under term fencing.
	OnPromote func(st *JournalState, j *Journal, term uint64)
	// OnDemote fires (outside all replica locks) when this replica is
	// deposed; the harness must stop pushing plans with the old term.
	OnDemote func(term uint64)
	Metrics  *metrics.Registry
}

// HAReplica is one member of the replicated controller group.
type HAReplica struct {
	cfg     HAReplicaConfig
	elector *Elector

	mu      sync.Mutex
	sj      *StandbyJournal // standby role, nil while leading
	standby *Standby
	j       *Journal // leader role, nil while standing by
	repl    *Replicator
	closed  bool
	// lastTerm is the term of the leader that last verifiably extended
	// this replica's journal — the election up-to-date fence (Raft's
	// "term of last log entry"). It is persisted across restarts by the
	// term-marker epoch record every new leader appends at promotion
	// (recovered here via ReplayJournal), advances when the standby
	// proves its journal a prefix of a newer leader's, and gates both
	// lease grants and incoming frames.
	lastTerm uint64
}

// NewHAReplica builds a replica in the standby role. Call Start to arm
// its election timeout.
func NewHAReplica(cfg HAReplicaConfig) (*HAReplica, error) {
	ha := &HAReplica{cfg: cfg}
	sj, err := OpenStandbyJournal(cfg.JournalPath)
	if err != nil {
		return nil, err
	}
	ha.sj = sj
	// Recover the journal's term fence: the highest term any replayed
	// epoch record carries. Every leader appends a term-marker epoch
	// record at promotion before any other record of its term, so this is
	// exactly the term of the leader that last extended the journal.
	st, err := ReplayJournal(cfg.JournalPath)
	if err != nil {
		_ = sj.Close()
		return nil, err
	}
	ha.lastTerm = st.Term
	ha.elector = NewElector(ElectorConfig{
		ID:              cfg.ID,
		Peers:           cfg.Peers,
		Quorum:          cfg.Quorum,
		LeaseUS:         cfg.LeaseUS,
		Seed:            cfg.Seed,
		Clock:           cfg.Clock,
		Transport:       cfg.Transport,
		JournalBytes:    ha.JournalBytes,
		JournalCRC:      ha.JournalCRC,
		JournalLastTerm: ha.JournalLastTerm,
		OnLeader:        ha.promote,
		OnDeposed:       ha.demote,
		OnHeartbeat:     ha.onLeaderHeartbeat,
	})
	ha.standby = NewStandby(StandbyConfig{
		ID:         cfg.ID,
		Transport:  cfg.Transport,
		Term:       ha.elector.Term,
		LastTerm:   ha.JournalLastTerm,
		OnVerified: ha.noteVerifiedTerm,
	}, sj)
	if cfg.Metrics != nil {
		ha.elector.SetMetrics(cfg.Metrics)
		ha.standby.SetMetrics(cfg.Metrics)
	}
	return ha, nil
}

// Elector returns the replica's election state machine.
func (ha *HAReplica) Elector() *Elector { return ha.elector }

// Replicator returns the leader-side replicator, nil while standing by.
func (ha *HAReplica) Replicator() *Replicator {
	ha.mu.Lock()
	defer ha.mu.Unlock()
	return ha.repl
}

// Journal returns the leader journal, nil while standing by.
func (ha *HAReplica) Journal() *Journal {
	ha.mu.Lock()
	defer ha.mu.Unlock()
	return ha.j
}

// JournalBytes reports the replica's intact journal length, whichever
// role holds the file. Called by the elector under its own lock.
func (ha *HAReplica) JournalBytes() int64 {
	ha.mu.Lock()
	defer ha.mu.Unlock()
	if ha.j != nil {
		return ha.j.Size()
	}
	if ha.sj != nil {
		return ha.sj.Bytes()
	}
	return 0
}

// JournalCRC reports the running CRC over the replica's intact journal.
func (ha *HAReplica) JournalCRC() uint32 {
	ha.mu.Lock()
	defer ha.mu.Unlock()
	if ha.j != nil {
		return ha.j.CRC()
	}
	if ha.sj != nil {
		return ha.sj.CRC()
	}
	return 0
}

// JournalLastTerm reports the term of the leader that last verifiably
// extended this replica's journal — the (lastTerm, bytes) half the
// election's up-to-date check compares first.
func (ha *HAReplica) JournalLastTerm() uint64 {
	ha.mu.Lock()
	defer ha.mu.Unlock()
	return ha.lastTerm
}

// noteVerifiedTerm advances the journal's term fence after the standby
// proves its journal a prefix of the term-`term` leader's.
func (ha *HAReplica) noteVerifiedTerm(term uint64) {
	ha.mu.Lock()
	defer ha.mu.Unlock()
	if term > ha.lastTerm {
		ha.lastTerm = term
	}
}

// Start arms the replica's first election timeout.
func (ha *HAReplica) Start() { ha.elector.Start() }

// Stop halts the replica: the elector ignores all further events and
// the journal handles are closed. Models a crashed replica.
func (ha *HAReplica) Stop() {
	ha.elector.Stop()
	ha.mu.Lock()
	defer ha.mu.Unlock()
	ha.closed = true
	if ha.repl != nil {
		ha.repl.Detach()
		ha.repl = nil
	}
	if ha.j != nil {
		//vet:ignore lockedblocking -- crash-stop is atomic: Deliver must never find a half-closed journal
		_ = ha.j.Close()
		ha.j = nil
	}
	if ha.sj != nil {
		//vet:ignore lockedblocking -- same atomic crash-stop for the standby handle
		_ = ha.sj.Close()
		ha.sj = nil
	}
	ha.standby = nil
}

// promote swaps standby → leader for the given term: replay the journal
// replication delivered, reopen it for appending, attach a replicator
// fenced at the winning term, then hand the replayed state to the
// harness.
func (ha *HAReplica) promote(term uint64) {
	ha.mu.Lock()
	if ha.closed || ha.j != nil {
		ha.mu.Unlock()
		return
	}
	if ha.sj != nil {
		//vet:ignore lockedblocking -- promotion closes the standby handle before the replay inside one critical section
		_ = ha.sj.Close()
		ha.sj, ha.standby = nil, nil
	}
	//vet:ignore lockedblocking -- takeover is atomic: no frame may land between the replay and the append reopen
	st, err := ReplayJournal(ha.cfg.JournalPath)
	if err != nil {
		ha.mu.Unlock()
		panic(fmt.Sprintf("controller: replica %d takeover replay: %v", ha.cfg.ID, err))
	}
	//vet:ignore lockedblocking -- same atomic role swap: Deliver must not race the journal pointer
	j, err := OpenJournal(ha.cfg.JournalPath)
	if err != nil {
		ha.mu.Unlock()
		panic(fmt.Sprintf("controller: replica %d takeover reopen: %v", ha.cfg.ID, err))
	}
	ha.j = j
	ha.repl = NewReplicator(ReplicatorConfig{
		ID:        ha.cfg.ID,
		Peers:     ha.cfg.Peers,
		Quorum:    ha.cfg.Quorum,
		Transport: ha.cfg.Transport,
		// The term is fixed for this replicator's lifetime: a deposed
		// leader tears it down and any frame it raced out carries the old
		// term, which standbys refuse.
		Term: func() uint64 { return term },
	}, j)
	if ha.cfg.Metrics != nil {
		ha.repl.SetMetrics(ha.cfg.Metrics)
	}
	// Term marker — Raft's no-op entry at the start of a term. Appending
	// an epoch record fenced with the winning term (epoch unchanged)
	// before any other record of this term persists the journal's term
	// fence: a replica that replays this journal — after a crash, or as a
	// standby that replicated it — recovers lastTerm = term, so a deposed
	// leader's longer-but-staler journal can never win a later election
	// over it on length alone.
	//vet:ignore lockedblocking -- the marker must be the term's first record, before any frame or append can race the role swap
	if err := j.LogEpoch(st.Epoch, term); err != nil {
		ha.mu.Unlock()
		panic(fmt.Sprintf("controller: replica %d term marker append: %v", ha.cfg.ID, err))
	}
	if term > ha.lastTerm {
		ha.lastTerm = term
	}
	cb := ha.cfg.OnPromote
	ha.mu.Unlock()
	if cb != nil {
		cb(st, j, term)
	}
}

// demote swaps leader → standby after deposition: close the append
// handle, reopen the same file as a standby journal, and resume
// following the new leader's stream.
func (ha *HAReplica) demote(term uint64) {
	ha.mu.Lock()
	if ha.closed || ha.j == nil {
		ha.mu.Unlock()
		return
	}
	ha.repl.Detach()
	ha.repl = nil
	//vet:ignore lockedblocking -- demotion closes the append handle and reopens as standby in one critical section
	_ = ha.j.Close()
	ha.j = nil
	//vet:ignore lockedblocking -- demotion is atomic: frames for the new term must find the standby journal open
	sj, err := OpenStandbyJournal(ha.cfg.JournalPath)
	if err != nil {
		ha.mu.Unlock()
		panic(fmt.Sprintf("controller: replica %d demotion reopen: %v", ha.cfg.ID, err))
	}
	ha.sj = sj
	ha.standby = NewStandby(StandbyConfig{
		ID:         ha.cfg.ID,
		Transport:  ha.cfg.Transport,
		Term:       ha.elector.Term,
		LastTerm:   ha.JournalLastTerm,
		OnVerified: ha.noteVerifiedTerm,
	}, sj)
	if ha.cfg.Metrics != nil {
		ha.standby.SetMetrics(ha.cfg.Metrics)
	}
	cb := ha.cfg.OnDemote
	ha.mu.Unlock()
	if cb != nil {
		cb(term)
	}
}

// onLeaderHeartbeat routes an accepted leader heartbeat to the standby
// replication logic (catch-up / resync). Fired by the elector outside
// its lock.
func (ha *HAReplica) onLeaderHeartbeat(hb mgmt.Heartbeat) {
	ha.mu.Lock()
	s := ha.standby
	ha.mu.Unlock()
	if s != nil {
		s.HandleHeartbeat(hb)
	}
}

// Deliver routes one peer envelope: election traffic to the elector,
// frames to the standby, acks and fetches to the replicator. Envelopes
// for the role the replica is not in are dropped (stale by definition).
func (ha *HAReplica) Deliver(env *mgmt.Envelope) {
	switch env.T {
	case mgmt.TypeLeaseRequest, mgmt.TypeLeaseGrant, mgmt.TypeHeartbeat:
		ha.elector.Deliver(env)
	case mgmt.TypeJournalFrame:
		var f mgmt.JournalFrame
		if unmarshalValid(env.Data, &f) != nil {
			return
		}
		ha.mu.Lock()
		s := ha.standby
		ha.mu.Unlock()
		if s != nil {
			s.HandleFrame(f)
		}
	case mgmt.TypeJournalAck:
		var a mgmt.JournalAck
		if unmarshalValid(env.Data, &a) != nil {
			return
		}
		ha.mu.Lock()
		r := ha.repl
		ha.mu.Unlock()
		if r != nil {
			r.HandleAck(a)
		}
	case mgmt.TypeJournalFetch:
		var f mgmt.JournalFetch
		if unmarshalValid(env.Data, &f) != nil {
			return
		}
		ha.mu.Lock()
		r := ha.repl
		ha.mu.Unlock()
		if r != nil {
			r.HandleFetch(f)
		}
	}
}
