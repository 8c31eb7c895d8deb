package controller

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sort"
	"sync"
	"time"

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
// new leader replays its own standby journal and resumes epoch
// numbering past the max term-fenced high-water mark it finds.

// Replication metric family names.
const (
	MetricReplStreamedBytes = "sdme_replication_streamed_bytes_total"
	MetricReplCatchups      = "sdme_replication_catchups_total"
	MetricReplStaleFrames   = "sdme_replication_stale_frames_total"
	MetricReplResyncs       = "sdme_replication_resyncs_total"
)

// ErrOffsetGap reports a frame batch that does not start at the
// standby's current journal length; the caller requests catch-up.
var ErrOffsetGap = errors.New("controller: frame offset does not match journal length")

// DecodeFrames validates a batch of raw journal frames and returns the
// longest intact prefix: whole frames whose length field is sane and
// whose payload matches its CRC-32 and decodes as a wire envelope.
// records counts the frames in that prefix. err is non-nil when
// anything follows the prefix (truncated frame, bad CRC, garbage) —
// nothing past the first bad byte is ever included, which is the
// property FuzzJournalStream hammers on.
func DecodeFrames(buf []byte) (intact []byte, records int, err error) {
	off := 0
	for off < len(buf) {
		if len(buf)-off < 8 {
			return buf[:off], records, fmt.Errorf("controller: truncated frame header at %d", off)
		}
		n := binary.BigEndian.Uint32(buf[off : off+4])
		sum := binary.BigEndian.Uint32(buf[off+4 : off+8])
		if n == 0 || n > 16<<20 {
			return buf[:off], records, fmt.Errorf("controller: bad frame length %d at %d", n, off)
		}
		if int64(len(buf)-off-8) < int64(n) {
			return buf[:off], records, fmt.Errorf("controller: truncated frame payload at %d", off)
		}
		payload := buf[off+8 : off+8+int(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			return buf[:off], records, fmt.Errorf("controller: frame CRC mismatch at %d", off)
		}
		if _, derr := mgmt.DecodeEnvelope(payload); derr != nil {
			return buf[:off], records, fmt.Errorf("controller: frame at %d is not a journal envelope", off)
		}
		off += 8 + int(n)
		records++
	}
	return buf, records, nil
}

// StandbyJournal is the follower-side journal file: streamed frames are
// appended at exact offsets, torn tails are truncated at open, and the
// running CRC mirrors the leader's for divergence detection.
type StandbyJournal struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	bytes   int64
	records int64
	crc     uint32
}

// OpenStandbyJournal opens (creating if needed) a standby journal,
// truncating any torn tail and fsyncing the parent directory exactly
// like OpenJournal.
func OpenStandbyJournal(path string) (*StandbyJournal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("controller: open standby journal: %w", err)
	}
	intact, records, crc, torn, err := scanFrames(path, nil)
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	if torn {
		if err := f.Truncate(intact); err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("controller: truncate standby journal: %w", err)
		}
	}
	if err := syncDir(path); err != nil {
		_ = f.Close()
		return nil, err
	}
	return &StandbyJournal{f: f, path: path, bytes: intact, records: records, crc: crc}, nil
}

// Bytes returns the intact journal length.
func (s *StandbyJournal) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Records returns the intact record count.
func (s *StandbyJournal) Records() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.records
}

// CRC returns the running CRC-32 over the intact journal.
func (s *StandbyJournal) CRC() uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.crc
}

// Path returns the journal's file path.
func (s *StandbyJournal) Path() string { return s.path }

// Close syncs and closes the file.
func (s *StandbyJournal) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	//vet:ignore lockedblocking -- final fsync must serialize with in-flight frame applies on the same mutex
	err := s.f.Sync()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	return err
}

// ApplyFrames appends a batch of streamed frames at the given offset.
// It returns the journal length after the call. The batch is applied
// only when offset equals the current length (ErrOffsetGap otherwise —
// a duplicate or a gap, the caller decides); within the batch only the
// intact frame prefix is written, and never a record past a bad CRC.
func (s *StandbyJournal) ApplyFrames(offset int64, frames []byte) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return s.bytes, errors.New("controller: standby journal closed")
	}
	if offset != s.bytes {
		return s.bytes, fmt.Errorf("%w: offset %d, length %d", ErrOffsetGap, offset, s.bytes)
	}
	intact, records, decErr := DecodeFrames(frames)
	if len(intact) > 0 {
		//vet:ignore lockedblocking -- prefix invariant: streamed records land at exact offsets, serialized by the journal lock
		if _, err := s.f.WriteAt(intact, offset); err != nil {
			return s.bytes, fmt.Errorf("controller: standby append: %w", err)
		}
		//vet:ignore lockedblocking -- the ack reports the record durable; fsync precedes it under the same lock
		if err := s.f.Sync(); err != nil {
			return s.bytes, fmt.Errorf("controller: standby sync: %w", err)
		}
		s.bytes += int64(len(intact))
		s.records += int64(records)
		s.crc = crc32.Update(s.crc, crc32.IEEETable, intact)
	}
	if decErr != nil {
		return s.bytes, fmt.Errorf("controller: standby frame batch: %w", decErr)
	}
	return s.bytes, nil
}

// TruncateTo discards everything at and past the given length — the
// resync path when the leader's journal is shorter (this replica holds
// an un-replicated tail from a dead leader) or diverged. The running
// CRC is recomputed by rescanning the remaining prefix.
func (s *StandbyJournal) TruncateTo(n int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errors.New("controller: standby journal closed")
	}
	if n < 0 || n > s.bytes {
		return fmt.Errorf("controller: truncate to %d out of range [0,%d]", n, s.bytes)
	}
	if n == s.bytes {
		return nil
	}
	//vet:ignore lockedblocking -- resync truncation must serialize with frame appends
	if err := s.f.Truncate(n); err != nil {
		return fmt.Errorf("controller: standby truncate: %w", err)
	}
	//vet:ignore lockedblocking -- durable before any post-resync frame is acked
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("controller: standby truncate sync: %w", err)
	}
	//vet:ignore lockedblocking -- post-truncate rescan must complete before the next frame is judged against bytes/crc
	intact, records, crc, _, err := scanFrames(s.path, nil)
	if err != nil {
		return err
	}
	s.bytes, s.records, s.crc = intact, records, crc
	return nil
}

// StandbyConfig configures the follower-side replication endpoint.
type StandbyConfig struct {
	ID        int
	Transport PeerTransport
	// Term reports the replica's current election term; frames fenced
	// with an older term are refused (the sender was deposed).
	Term func() uint64
	// LastTerm reports the term of the leader that last verifiably
	// extended this replica's journal (nil = 0). Frames older than it are
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

// Standby glues a StandbyJournal to the peer transport: it applies
// streamed frames, acks the leader with its durable length, requests
// catch-up on gaps, and resyncs on divergence signals in heartbeats.
type Standby struct {
	cfg StandbyConfig
	sj  *StandbyJournal

	cStale, cResyncs *metrics.Counter
}

// NewStandby builds a standby endpoint over an open standby journal.
func NewStandby(cfg StandbyConfig, sj *StandbyJournal) *Standby {
	return &Standby{cfg: cfg, sj: sj}
}

// SetMetrics exports the standby's stale-frame refusals and resyncs.
func (s *Standby) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		s.cStale, s.cResyncs = nil, nil
		return
	}
	s.cStale = reg.Counter(MetricReplStaleFrames)
	s.cResyncs = reg.Counter(MetricReplResyncs)
}

// Journal returns the underlying standby journal.
func (s *Standby) Journal() *StandbyJournal { return s.sj }

func (s *Standby) term() uint64 {
	if s.cfg.Term == nil {
		return 0
	}
	return s.cfg.Term()
}

func (s *Standby) lastTerm() uint64 {
	if s.cfg.LastTerm == nil {
		return 0
	}
	return s.cfg.LastTerm()
}

// verified records that the standby's journal is now a proven prefix of
// the term-`term` leader's journal.
func (s *Standby) verified(term uint64) {
	if s.cfg.OnVerified != nil {
		s.cfg.OnVerified(term)
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
	term, fence := s.term(), s.lastTerm()
	if fence > term {
		term = fence
	}
	if f.Term < term {
		if s.cStale != nil {
			s.cStale.Inc()
		}
		// Ack with our higher fence so the deposed sender learns.
		s.ack(f.Leader, term)
		return
	}
	bytes, crc := s.sj.Bytes(), s.sj.CRC()
	if f.Offset == bytes && f.PrefixCRC != crc {
		// Diverged below the leader's offset: everything we hold at this
		// length is suspect. Full resync.
		if s.cResyncs != nil {
			s.cResyncs.Inc()
		}
		if s.sj.TruncateTo(0) != nil {
			return
		}
		// The empty journal is trivially the leader's prefix.
		s.verified(f.Term)
		s.sendFetch(f.Leader, 0)
		s.ack(f.Leader, f.Term)
		return
	}
	if f.Offset == bytes {
		// Prefix CRC matched at our exact length: our whole journal is the
		// term-f.Term leader's prefix, and the batch extends it.
		s.verified(f.Term)
		_, err := s.sj.ApplyFrames(f.Offset, f.Frames)
		s.ack(f.Leader, f.Term)
		_ = err // bad tails are already excluded from the durable length
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
	if hb.Term < s.term() || hb.Term < s.lastTerm() {
		return
	}
	bytes, crc := s.sj.Bytes(), s.sj.CRC()
	switch {
	case bytes > hb.JournalBytes:
		// Our tail was never on a quorum (the leader was elected with a
		// journal at least as up-to-date as a majority's): discard it.
		if s.cResyncs != nil {
			s.cResyncs.Inc()
		}
		if err := s.sj.TruncateTo(hb.JournalBytes); err != nil {
			return
		}
		if s.sj.CRC() != hb.JournalCRC {
			// Still diverged below the leader's length: full resync.
			_ = s.sj.TruncateTo(0)
		} else {
			s.verified(hb.Term)
		}
		s.sendFetch(hb.Leader, s.sj.Bytes())
	case bytes == hb.JournalBytes && crc != hb.JournalCRC:
		if s.cResyncs != nil {
			s.cResyncs.Inc()
		}
		_ = s.sj.TruncateTo(0)
		s.sendFetch(hb.Leader, 0)
	case bytes < hb.JournalBytes:
		s.sendFetch(hb.Leader, bytes)
	default:
		// Equal length, equal CRC: byte-identical to the leader.
		s.verified(hb.Term)
	}
}

func (s *Standby) ack(leader int, term uint64) {
	s.sendTo(leader, mgmt.TypeJournalAck, mgmt.JournalAck{
		Standby: s.cfg.ID, Term: term, Bytes: s.sj.Bytes(),
	})
}

func (s *Standby) sendFetch(leader int, from int64) {
	s.sendTo(leader, mgmt.TypeJournalFetch, mgmt.JournalFetch{Standby: s.cfg.ID, From: from})
}

func (s *Standby) sendTo(to int, typ string, v interface{}) {
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	_ = s.cfg.Transport.Send(to, &mgmt.Envelope{T: typ, Data: data})
}

// ReplicatorConfig configures the leader-side replication endpoint.
type ReplicatorConfig struct {
	ID    int
	Peers []int
	// Quorum is the number of replicas (leader included) that must hold
	// a record durably before WaitQuorum releases it; 0 = a majority of
	// len(Peers)+1.
	Quorum    int
	Transport PeerTransport
	// Term reports the leader's current election term for frame fencing.
	Term func() uint64
	// ChunkBytes bounds one catch-up batch (default 1 MiB).
	ChunkBytes int
}

func (c *ReplicatorConfig) fill() {
	if c.Quorum <= 0 {
		c.Quorum = (len(c.Peers)+1)/2 + 1
	}
	if c.ChunkBytes <= 0 {
		c.ChunkBytes = 1 << 20
	}
}

// Replicator is the leader-side endpoint: it streams each appended
// journal record to every standby, tracks per-standby durable lengths,
// and answers catch-up fetches from any offset out of the journal file.
type Replicator struct {
	cfg ReplicatorConfig
	j   *Journal

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
func NewReplicator(cfg ReplicatorConfig, j *Journal) *Replicator {
	cfg.fill()
	r := &Replicator{cfg: cfg, j: j, acked: make(map[int]int64)}
	j.SetOnAppend(r.onAppend)
	return r
}

// SetMetrics exports streamed bytes and catch-up counts.
func (r *Replicator) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		r.cStreamed, r.cCatchups = nil, nil
		return
	}
	r.cStreamed = reg.Counter(MetricReplStreamedBytes)
	r.cCatchups = reg.Counter(MetricReplCatchups)
}

// Detach unhooks the replicator from the journal (takeover teardown).
func (r *Replicator) Detach() { r.j.SetOnAppend(nil) }

// Quorum returns the effective quorum size.
func (r *Replicator) Quorum() int { return r.cfg.Quorum }

func (r *Replicator) term() uint64 {
	if r.cfg.Term == nil {
		return 0
	}
	return r.cfg.Term()
}

// onAppend streams one freshly durable record to every standby.
func (r *Replicator) onAppend(offset int64, prefixCRC uint32, frame []byte) error {
	f := mgmt.JournalFrame{
		Leader: r.cfg.ID, Term: r.term(),
		Offset: offset, PrefixCRC: prefixCRC, Frames: frame,
	}
	for _, p := range r.cfg.Peers {
		r.sendTo(p, mgmt.TypeJournalFrame, f)
	}
	if r.cStreamed != nil {
		r.cStreamed.Add(int64(len(frame)) * int64(len(r.cfg.Peers)))
	}
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
	term := r.term()
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
	if r.cCatchups != nil {
		r.cCatchups.Inc()
	}
	r.sendChunk(f.Standby, f.From)
}

// sendChunk ships raw journal bytes from the given offset, stamped with
// the prefix CRC below it so the standby can verify alignment.
func (r *Replicator) sendChunk(to int, from int64) {
	crc, err := r.j.CRCAt(from)
	if err != nil {
		return
	}
	buf, err := r.j.ReadChunk(from, r.cfg.ChunkBytes)
	if err != nil || len(buf) == 0 {
		return
	}
	r.sendTo(to, mgmt.TypeJournalFrame, mgmt.JournalFrame{
		Leader: r.cfg.ID, Term: r.term(), Offset: from, PrefixCRC: crc, Frames: buf,
	})
	if r.cStreamed != nil {
		r.cStreamed.Add(int64(len(buf)))
	}
}

func (r *Replicator) sendTo(to int, typ string, v interface{}) {
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	_ = r.cfg.Transport.Send(to, &mgmt.Envelope{T: typ, Data: data})
}

// AckedBytes returns a standby's last reported durable length.
func (r *Replicator) AckedBytes(standby int) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.acked[standby]
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
	return lens[r.cfg.Quorum-1]
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
		return fmt.Errorf("controller: replication quorum %d not reached for offset %d within %v",
			r.cfg.Quorum, offset, timeout)
	}
}
