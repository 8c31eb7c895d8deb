package ha

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"sdme/internal/controller"
	"sdme/internal/metrics"
	"sdme/internal/mgmt"
)

// Journal replication (DESIGN §11). The leader streams every journal
// record — the exact on-disk length+CRC32 frames, unchanged — to its
// standbys, and a rollout is only acknowledged once a quorum of
// replicas (leader included) holds the records durably. A standby's
// journal is kept a PROVEN prefix of the leader's: every frame carries
// the running CRC-32 of the leader's journal below its offset, a batch
// is applied only when that prefix CRC matches the standby's own
// running CRC at its exact current length, and the leader's heartbeats
// carry (size, running CRC) as well — so a diverged prefix (records a
// dead leader streamed that never reached a quorum) is detected at the
// first frame or heartbeat and resynced from zero, never silently
// spliced or livelocked on misaligned catch-up offsets.
// Takeover then reuses ReplayJournal + RestoreFromJournal verbatim: the
// new leader replays the journal replication delivered and resumes epoch
// numbering past the max term-fenced high-water mark it finds.

// Replication metric family names.
const (
	MetricReplStreamedBytes = "sdme_replication_streamed_bytes_total"
	MetricReplCatchups      = "sdme_replication_catchups_total"
	MetricReplStaleFrames   = "sdme_replication_stale_frames_total"
	MetricReplResyncs       = "sdme_replication_resyncs_total"
)

// StandbyConfig configures the follower-side replication endpoint.
type StandbyConfig struct {
	ID        int
	Transport PeerTransport
	// Metrics receives the stale-frame and resync counters.
	Metrics *metrics.Registry
	// Term reports the replica's current election term; frames fenced
	// with an older term are refused (the sender was deposed).
	Term func() uint64
	// LastTerm reports the term of the leader that last verifiably
	// extended this replica's journal. Frames older than it are
	// refused even when the election term lags — once a newer leader's
	// records are in the journal, a dead leader's stragglers must never
	// append behind them.
	LastTerm func() uint64
	// OnVerified fires after the standby proves its journal is a prefix
	// of the term-`term` leader's journal (prefix-CRC match on a frame,
	// or a full-length CRC match in a heartbeat); the replica persists it
	// as the new LastTerm fence.
	OnVerified func(term uint64)
}

// Standby is the follower-side endpoint over the replica's journal: it
// applies streamed frames, acks the leader with its durable length,
// requests catch-up on gaps, and resyncs on divergence signals in
// heartbeats.
type Standby struct {
	cfg StandbyConfig
	j   *controller.Journal

	cStale, cResyncs *metrics.Counter
}

// NewStandby builds a standby endpoint over an open journal.
func NewStandby(cfg StandbyConfig, j *controller.Journal) *Standby {
	return &Standby{
		cfg: cfg, j: j,
		cStale:   cfg.Metrics.Counter(MetricReplStaleFrames),
		cResyncs: cfg.Metrics.Counter(MetricReplResyncs),
	}
}

// HandleFrame applies one streamed frame batch and acks the leader.
// Frames fenced with a term older than the replica's election term OR
// its journal fence are refused without touching the journal — a
// deposed leader cannot extend a standby's log (the replication half of
// split-brain fencing). A batch at the standby's exact length is
// applied only when the frame's prefix CRC matches the standby's own
// running CRC: a mismatch means the journal below this offset is NOT
// the leader's prefix (an un-acked tail from a dead leader), and the
// standby resyncs from zero instead of splicing diverged histories.
func (s *Standby) HandleFrame(f mgmt.JournalFrame) {
	term := max(s.cfg.Term(), s.cfg.LastTerm())
	if f.Term < term {
		s.cStale.Inc()
		// Ack with our higher fence so the deposed sender learns.
		s.ack(f.Leader, term)
		return
	}
	bytes, crc := s.j.Size(), s.j.CRC()
	if f.Offset == bytes && f.PrefixCRC != crc {
		// Diverged below the leader's offset: everything we hold at this
		// length is suspect. Full resync.
		s.cResyncs.Inc()
		if s.j.TruncateTo(0) != nil {
			return
		}
		// The empty journal is trivially the leader's prefix.
		s.cfg.OnVerified(f.Term)
		s.sendFetch(f.Leader, 0)
		s.ack(f.Leader, f.Term)
		return
	}
	if f.Offset == bytes {
		// Prefix CRC matched at our exact length: our whole journal is the
		// term-f.Term leader's prefix, and the batch extends it.
		s.cfg.OnVerified(f.Term)
		// A bad tail, or a record replay would refuse, is already excluded
		// from the durable length the ack reports.
		_, _ = s.j.ApplyFrames(f.Offset, f.Frames)
		s.ack(f.Leader, f.Term)
		return
	}
	if f.Offset > bytes {
		// A gap: records between our length and the frame are missing.
		s.sendFetch(f.Leader, bytes)
	}
	// Duplicate or gap — our length is unchanged and unverified by THIS
	// frame; ack with the fence we last verified against so an unproven
	// length never enters a newer leader's quorum accounting.
	s.ack(f.Leader, term)
}

// HandleHeartbeat folds the leader's replication progress report in: a
// shorter or equal-length-but-diverged leader journal triggers resync
// truncation, a longer one triggers catch-up, and a full-length CRC
// match proves the journals identical (advancing the LastTerm fence).
func (s *Standby) HandleHeartbeat(hb mgmt.Heartbeat) {
	if hb.Term < s.cfg.Term() || hb.Term < s.cfg.LastTerm() {
		return
	}
	bytes, crc := s.j.Size(), s.j.CRC()
	switch {
	case bytes > hb.JournalBytes:
		// Our tail was never on a quorum (the leader was elected with a
		// journal at least as up-to-date as a majority's): discard it.
		s.cResyncs.Inc()
		if err := s.j.TruncateTo(hb.JournalBytes); err != nil {
			return
		}
		if s.j.CRC() != hb.JournalCRC {
			// Still diverged below the leader's length: full resync.
			_ = s.j.TruncateTo(0)
		} else {
			s.cfg.OnVerified(hb.Term)
		}
		s.sendFetch(hb.Leader, s.j.Size())
	case bytes == hb.JournalBytes && crc != hb.JournalCRC:
		s.cResyncs.Inc()
		_ = s.j.TruncateTo(0)
		s.sendFetch(hb.Leader, 0)
	case bytes < hb.JournalBytes:
		s.sendFetch(hb.Leader, bytes)
	default:
		// Equal length, equal CRC: byte-identical to the leader.
		s.cfg.OnVerified(hb.Term)
	}
}

func (s *Standby) ack(leader int, term uint64) {
	send(s.cfg.Transport, leader, mgmt.TypeJournalAck, mgmt.JournalAck{
		Standby: s.cfg.ID, Term: term, Bytes: s.j.Size(),
	})
}

func (s *Standby) sendFetch(leader int, from int64) {
	send(s.cfg.Transport, leader, mgmt.TypeJournalFetch, mgmt.JournalFetch{Standby: s.cfg.ID, From: from})
}

// ReplicatorConfig configures the leader-side replication endpoint.
type ReplicatorConfig struct {
	ID        int
	Peers     []int
	Transport PeerTransport
	// Metrics receives the streamed-bytes and catch-up counters.
	Metrics *metrics.Registry
	// Term reports the leader's current election term for frame fencing.
	Term func() uint64
}

// chunkBytes bounds one catch-up batch.
const chunkBytes = 1 << 20

// Replicator is the leader-side endpoint: it streams each appended
// journal record to every standby, tracks per-standby durable lengths,
// and answers catch-up fetches from any offset out of the journal file.
type Replicator struct {
	cfg ReplicatorConfig
	j   *controller.Journal

	mu      sync.Mutex
	acked   map[int]int64
	waiters []repWaiter

	cStreamed, cCatchups *metrics.Counter
}

type repWaiter struct {
	offset int64
	ch     chan struct{}
}

// NewReplicator attaches a replicator to the leader's journal: every
// subsequent Append streams its frame to the standbys before returning
// (without blocking on acks — call WaitQuorum to gate a rollout).
func NewReplicator(cfg ReplicatorConfig, j *controller.Journal) *Replicator {
	r := &Replicator{
		cfg: cfg, j: j, acked: make(map[int]int64),
		cStreamed: cfg.Metrics.Counter(MetricReplStreamedBytes),
		cCatchups: cfg.Metrics.Counter(MetricReplCatchups),
	}
	j.SetOnAppend(r.onAppend)
	return r
}

// Detach unhooks the replicator from the journal (takeover teardown).
func (r *Replicator) Detach() { r.j.SetOnAppend(nil) }

// onAppend streams one freshly durable record to every standby.
func (r *Replicator) onAppend(offset int64, prefixCRC uint32, frame []byte) error {
	f := mgmt.JournalFrame{
		Leader: r.cfg.ID, Term: r.cfg.Term(),
		Offset: offset, PrefixCRC: prefixCRC, Frames: frame,
	}
	for _, p := range r.cfg.Peers {
		send(r.cfg.Transport, p, mgmt.TypeJournalFrame, f)
	}
	r.cStreamed.Add(int64(len(frame)) * int64(len(r.cfg.Peers)))
	return nil
}

// HandleAck folds a standby's durable-length report in, wakes rollouts
// whose quorum it completes, and starts catch-up for a standby that is
// behind (unless the ack's term says this leader was deposed — a newer
// leader owns that standby now). Only acks fenced with THIS leader's
// term enter the quorum accounting: a standby that refused a stale
// frame, or one still verified against an older leader, still acks with
// its current length, and under a different term that length can name
// different bytes — counting it would let WaitQuorum release a record
// that is on no quorum.
func (r *Replicator) HandleAck(a mgmt.JournalAck) {
	term := r.cfg.Term()
	behind := a.Bytes
	if a.Term == term {
		r.mu.Lock()
		if a.Bytes > r.acked[a.Standby] {
			r.acked[a.Standby] = a.Bytes
		}
		var wake []chan struct{}
		if len(r.waiters) > 0 {
			q := r.quorumBytesLocked()
			kept := r.waiters[:0]
			for _, w := range r.waiters {
				if q >= w.offset {
					wake = append(wake, w.ch)
				} else {
					kept = append(kept, w)
				}
			}
			r.waiters = kept
		}
		behind = r.acked[a.Standby]
		r.mu.Unlock()
		for _, ch := range wake {
			close(ch)
		}
	}
	if a.Term <= term && behind < r.j.Size() {
		r.sendChunk(a.Standby, behind)
	}
}

// HandleFetch answers a standby's catch-up request from any offset.
func (r *Replicator) HandleFetch(f mgmt.JournalFetch) {
	r.cCatchups.Inc()
	r.sendChunk(f.Standby, f.From)
}

// sendChunk ships raw journal bytes from the given offset, stamped with
// the prefix CRC below it so the standby can verify alignment.
func (r *Replicator) sendChunk(to int, from int64) {
	crc, err := r.j.CRCAt(from)
	if err != nil {
		return
	}
	buf, err := r.j.ReadChunk(from, chunkBytes)
	if err != nil || len(buf) == 0 {
		return
	}
	send(r.cfg.Transport, to, mgmt.TypeJournalFrame, mgmt.JournalFrame{
		Leader: r.cfg.ID, Term: r.cfg.Term(), Offset: from, PrefixCRC: crc, Frames: buf,
	})
	r.cStreamed.Add(int64(len(buf)))
}

// QuorumBytes returns the journal length known durable on a quorum of
// replicas (leader included) — the replicated high-water mark.
func (r *Replicator) QuorumBytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.quorumBytesLocked()
}

func (r *Replicator) quorumBytesLocked() int64 {
	lens := make([]int64, 0, len(r.cfg.Peers)+1)
	lens = append(lens, r.j.Size())
	for _, p := range r.cfg.Peers {
		lens = append(lens, r.acked[p])
	}
	sort.Slice(lens, func(i, j int) bool { return lens[i] > lens[j] })
	return lens[majority(len(r.cfg.Peers))-1]
}

// WaitQuorum blocks until the journal prefix up to offset is durable on
// a quorum, or the timeout passes. This is the "stream before acking a
// rollout" gate: call it with Journal.Size() after the last append of a
// plan round, before pushing the round to any agent. Live substrate
// only — the sim harness polls QuorumBytes on virtual time instead.
func (r *Replicator) WaitQuorum(offset int64, timeout time.Duration) error {
	r.mu.Lock()
	if r.quorumBytesLocked() >= offset {
		r.mu.Unlock()
		return nil
	}
	ch := make(chan struct{})
	r.waiters = append(r.waiters, repWaiter{offset: offset, ch: ch})
	r.mu.Unlock()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-ch:
		return nil
	case <-timer.C:
		return fmt.Errorf("ha: replication quorum not reached for offset %d within %v", offset, timeout)
	}
}
