package ha

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"path/filepath"
	"sync"
	"testing"

	"sdme/internal/controller"
	"sdme/internal/metrics"
	"sdme/internal/mgmt"
)

// stubClock never fires timers — elections driven purely by Deliver.
type stubClock struct{}

func (stubClock) NowUS() int64                 { return 0 }
func (stubClock) AfterUS(int64, func()) func() { return func() {} }

type sentMsg struct {
	to  int
	env *mgmt.Envelope
}

// captureTransport records every peer envelope for the test to route.
type captureTransport struct {
	mu   sync.Mutex
	sent []sentMsg
}

func (t *captureTransport) Send(to int, env *mgmt.Envelope) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	cp := &mgmt.Envelope{T: env.T, Data: append([]byte(nil), env.Data...)}
	t.sent = append(t.sent, sentMsg{to: to, env: cp})
	return nil
}

func (t *captureTransport) drain() []sentMsg {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.sent
	t.sent = nil
	return out
}

// TestLeaseUpToDateCheckComparesLastTerm: the voter must apply Raft's
// lexicographic (lastTerm, bytes) criterion, not bytes alone — a
// deposed leader's longer journal with an un-acked tail (staler
// lastTerm) must be refused, or quorum-acked records could be lost on
// takeover.
func TestLeaseUpToDateCheckComparesLastTerm(t *testing.T) {
	tr := &captureTransport{}
	e := NewElector(ElectorConfig{
		ID: 0, Peers: []int{1},
		Clock:           stubClock{},
		Transport:       tr,
		Metrics:         metrics.NewRegistry(nil),
		JournalBytes:    func() int64 { return 50 },
		JournalLastTerm: func() uint64 { return 2 },
	})
	bid := func(term, lastTerm uint64, bytes int64) bool {
		t.Helper()
		data, err := json.Marshal(mgmt.LeaseRequest{
			Candidate: 1, Term: term, JournalBytes: bytes, LastTerm: lastTerm,
		})
		if err != nil {
			t.Fatal(err)
		}
		e.Deliver(&mgmt.Envelope{T: mgmt.TypeLeaseRequest, Data: data})
		for _, m := range tr.drain() {
			if m.env.T != mgmt.TypeLeaseGrant {
				continue
			}
			var g mgmt.LeaseGrant
			if err := json.Unmarshal(m.env.Data, &g); err != nil {
				t.Fatal(err)
			}
			return g.Granted
		}
		t.Fatalf("no grant reply for term %d", term)
		return false
	}
	if bid(3, 1, 100) {
		t.Fatal("granted lease to a longer journal with a staler lastTerm (the deposed-leader bug)")
	}
	if !bid(4, 2, 50) {
		t.Fatal("refused an equally up-to-date candidate")
	}
	if bid(5, 2, 49) {
		t.Fatal("granted lease to a shorter journal at equal lastTerm")
	}
	if !bid(6, 3, 0) {
		t.Fatal("refused a candidate with a newer lastTerm")
	}
}

// pump routes captured envelopes between one replicator and one standby
// until the exchange quiesces, with a hop budget so a fetch/resend
// livelock fails the test instead of hanging it.
func pump(t *testing.T, tr *captureTransport, repl *Replicator, sb *Standby, maxRounds int) {
	t.Helper()
	for i := 0; i < maxRounds; i++ {
		msgs := tr.drain()
		if len(msgs) == 0 {
			return
		}
		for _, m := range msgs {
			switch m.env.T {
			case mgmt.TypeJournalFrame:
				var f mgmt.JournalFrame
				if err := json.Unmarshal(m.env.Data, &f); err != nil {
					t.Fatal(err)
				}
				sb.HandleFrame(f)
			case mgmt.TypeJournalFetch:
				var f mgmt.JournalFetch
				if err := json.Unmarshal(m.env.Data, &f); err != nil {
					t.Fatal(err)
				}
				repl.HandleFetch(f)
			case mgmt.TypeJournalAck:
				var a mgmt.JournalAck
				if err := json.Unmarshal(m.env.Data, &a); err != nil {
					t.Fatal(err)
				}
				repl.HandleAck(a)
			}
		}
	}
	t.Fatalf("replication did not quiesce within %d rounds (fetch/resend livelock)", maxRounds)
}

// TestStandbyShorterDivergedResyncs: a standby that is SHORTER than the
// leader but diverged (it applied a dead leader's un-acked tail) used to
// fetch from its own length — generally not a frame boundary in the
// leader's journal — and livelock on undecodable chunks while silently
// staying in the quorum. The prefix CRC on every frame must instead
// trigger a full resync that converges to the leader's exact bytes.
func TestStandbyShorterDivergedResyncs(t *testing.T) {
	dir := t.TempDir()
	lj, err := controller.OpenJournal(filepath.Join(dir, "leader.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer lj.Close() //nolint:errcheck // test teardown
	for i := uint64(1); i <= 3; i++ {
		if err := lj.LogEpoch(i, 2); err != nil {
			t.Fatal(err)
		}
	}
	// Diverged standby: one record the leader never wrote — shorter than
	// the leader's journal but not its prefix.
	spath := filepath.Join(dir, "standby.wal")
	dj, err := controller.OpenJournal(spath)
	if err != nil {
		t.Fatal(err)
	}
	if err := dj.LogEpoch(999_999, 1); err != nil {
		t.Fatal(err)
	}
	if err := dj.Close(); err != nil {
		t.Fatal(err)
	}
	sj, err := controller.OpenJournal(spath)
	if err != nil {
		t.Fatal(err)
	}
	defer sj.Close() //nolint:errcheck // test teardown
	if sj.Size() >= lj.Size() {
		t.Fatalf("test setup: standby (%d bytes) not shorter than leader (%d bytes)", sj.Size(), lj.Size())
	}

	tr := &captureTransport{}
	repl := NewReplicator(ReplicatorConfig{
		ID: 0, Peers: []int{1}, Transport: tr, Metrics: metrics.NewRegistry(nil),
		Term: func() uint64 { return 2 },
	}, lj)
	defer repl.Detach()
	var lastTerm uint64
	sb := NewStandby(StandbyConfig{
		ID: 1, Transport: tr, Metrics: metrics.NewRegistry(nil),
		Term:     func() uint64 { return 2 },
		LastTerm: func() uint64 { return lastTerm },
		OnVerified: func(term uint64) {
			if term > lastTerm {
				lastTerm = term
			}
		},
	}, sj)

	sb.HandleHeartbeat(mgmt.Heartbeat{
		Leader: 0, Term: 2, JournalBytes: lj.Size(), JournalCRC: lj.CRC(),
	})
	pump(t, tr, repl, sb, 50)

	if sj.Size() != lj.Size() || sj.CRC() != lj.CRC() {
		t.Fatalf("standby did not converge: %d bytes CRC %#x vs leader %d bytes CRC %#x",
			sj.Size(), sj.CRC(), lj.Size(), lj.CRC())
	}
	if got := repl.acked[1]; got != lj.Size() {
		t.Fatalf("leader accounts %d acked bytes, want %d", got, lj.Size())
	}
	if lastTerm != 2 {
		t.Fatalf("standby journal fence is %d after verified resync, want 2", lastTerm)
	}
}

// TestHandleAckIgnoresOtherTermForQuorum: an ack fenced with a term
// other than the replicator's reports a length that can name different
// bytes (a refused stale frame still acks, and a diverged journal can be
// long); folding it into the quorum accounting would let WaitQuorum
// release records that are on no quorum.
func TestHandleAckIgnoresOtherTermForQuorum(t *testing.T) {
	dir := t.TempDir()
	lj, err := controller.OpenJournal(filepath.Join(dir, "leader.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer lj.Close() //nolint:errcheck // test teardown
	if err := lj.LogEpoch(1, 2); err != nil {
		t.Fatal(err)
	}
	tr := &captureTransport{}
	r := NewReplicator(ReplicatorConfig{
		ID: 0, Peers: []int{1, 2}, Transport: tr, Metrics: metrics.NewRegistry(nil),
		Term: func() uint64 { return 2 },
	}, lj)
	defer r.Detach()
	size := lj.Size()

	r.HandleAck(mgmt.JournalAck{Standby: 1, Term: 1, Bytes: size})
	if got := r.QuorumBytes(); got != 0 {
		t.Fatalf("stale-term ack advanced the quorum mark to %d", got)
	}
	if got := r.acked[1]; got != 0 {
		t.Fatalf("stale-term ack recorded %d acked bytes", got)
	}
	r.HandleAck(mgmt.JournalAck{Standby: 1, Term: 3, Bytes: size})
	if got := r.QuorumBytes(); got != 0 {
		t.Fatalf("newer-term ack (deposed leader) advanced the quorum mark to %d", got)
	}
	r.HandleAck(mgmt.JournalAck{Standby: 1, Term: 2, Bytes: size})
	if got := r.QuorumBytes(); got != size {
		t.Fatalf("current-term ack left the quorum mark at %d, want %d", got, size)
	}
}

// TestStandbyAcksTrueLengthForUnreplayableRecord: a leader that streams a
// CRC-valid record replay would refuse (an unknown kind, a mis-shaped
// body) gets an ack for exactly what the standby made durable — the
// records before it, not a byte of it — so it never counts toward a
// quorum, and the standby's journal stays one it can take over from.
func TestStandbyAcksTrueLengthForUnreplayableRecord(t *testing.T) {
	dir := t.TempDir()
	lj, err := controller.OpenJournal(filepath.Join(dir, "leader.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer lj.Close() //nolint:errcheck // test teardown
	if err := lj.LogEpoch(1, 2); err != nil {
		t.Fatal(err)
	}
	good, err := lj.ReadChunk(0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	spath := filepath.Join(dir, "standby.wal")
	sj, err := controller.OpenJournal(spath)
	if err != nil {
		t.Fatal(err)
	}
	defer sj.Close() //nolint:errcheck // test teardown
	tr := &captureTransport{}
	sb := NewStandby(StandbyConfig{
		ID: 1, Transport: tr, Metrics: metrics.NewRegistry(nil),
		Term:       func() uint64 { return 2 },
		LastTerm:   func() uint64 { return 0 },
		OnVerified: func(uint64) {},
	}, sj)
	for _, payload := range []string{`{"t":"journal","data":{}}`, `{"t":"jrnl-epoch","data":"x"}`} {
		bad := make([]byte, 8+len(payload))
		binary.BigEndian.PutUint32(bad[:4], uint32(len(payload)))
		binary.BigEndian.PutUint32(bad[4:8], crc32.ChecksumIEEE([]byte(payload)))
		copy(bad[8:], payload)
		before := sj.Size()
		frames := bad
		if before == 0 {
			frames = append(append([]byte(nil), good...), bad...)
		}
		sb.HandleFrame(mgmt.JournalFrame{Leader: 0, Term: 2, Offset: before, PrefixCRC: sj.CRC(), Frames: frames})
		if sj.Size() != int64(len(good)) {
			t.Fatalf("%s: standby holds %d bytes, want the %d of the good record", payload, sj.Size(), len(good))
		}
		var ack mgmt.JournalAck
		for _, m := range tr.drain() {
			if m.env.T == mgmt.TypeJournalAck {
				if err := json.Unmarshal(m.env.Data, &ack); err != nil {
					t.Fatal(err)
				}
			}
		}
		if ack.Bytes != sj.Size() || ack.Term != 2 {
			t.Fatalf("%s: acked %d bytes at term %d, durable %d at term 2", payload, ack.Bytes, ack.Term, sj.Size())
		}
	}
	if st, err := controller.ReplayJournal(spath); err != nil || st.Records != 1 {
		t.Fatalf("the standby's journal no longer replays: %+v, %v", st, err)
	}
}
