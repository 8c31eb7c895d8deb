package sim_test

import (
	"fmt"
	"math/rand"
	"os"
	"testing"

	"sdme/internal/controller"
	"sdme/internal/ha"
	"sdme/internal/sim"
)

// TestControllerGroupElectsOneLeader: the base case — three replicas,
// one election, exactly one leader.
func TestControllerGroupElectsOneLeader(t *testing.T) {
	eng := sim.NewEngine()
	g, err := sim.NewControllerGroup(eng, sim.ControllerGroupConfig{
		Dir: t.TempDir(), LeaseUS: 10_000, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	id, term, _ := g.RunUntilLeader(5_000_000, 1)
	if id < 0 {
		t.Fatal("no leader elected")
	}
	if term == 0 {
		t.Fatal("leader at term 0")
	}
	leaders := 0
	for i := 0; i < g.N(); i++ {
		if g.Replica(i).Elector().Role() == ha.RoleLeader {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d replicas lead at once", leaders)
	}
}

// TestElectionAtMostOneLeaderPerTerm is the safety property test: across
// 1000 randomized-seed runs — each with a leader kill and a transient
// partition stirring re-elections — no term may ever produce two
// promotions, and the full promotion trace must be a pure function of
// the seed.
func TestElectionAtMostOneLeaderPerTerm(t *testing.T) {
	runs := 1000
	if testing.Short() {
		runs = 60
	}
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(4242))
	for run := 0; run < runs; run++ {
		seed := rng.Int63()
		trace1 := electionHistory(t, fmt.Sprintf("%s/a%d", dir, run), seed)
		byTerm := make(map[uint64]int)
		for _, p := range trace1 {
			if prev, dup := byTerm[p.Term]; dup && prev != p.ID {
				t.Fatalf("seed %d: term %d won by both replica %d and replica %d",
					seed, p.Term, prev, p.ID)
			}
			byTerm[p.Term] = p.ID
		}
		// Determinism spot-check on a sample (full double-runs would
		// double the test's cost for no extra safety coverage).
		if run%97 == 0 {
			trace2 := electionHistory(t, fmt.Sprintf("%s/b%d", dir, run), seed)
			if len(trace1) != len(trace2) {
				t.Fatalf("seed %d: reruns promoted %d vs %d times", seed, len(trace1), len(trace2))
			}
			for i := range trace1 {
				if trace1[i] != trace2[i] {
					t.Fatalf("seed %d: rerun diverged at promotion %d: %+v vs %+v",
						seed, i, trace1[i], trace2[i])
				}
			}
		}
	}
}

// TestTakeoverRefusesLongerButStalerJournal replays the scenario where
// a length-only up-to-date check loses quorum-acked records: leader A
// gets partitioned and appends an un-acked tail; B wins the next term
// and quorum-acks records (including its term marker) to C; B dies
// before A ever resyncs; A heals and bids with a LONGER journal than
// C's. A must lose the election (staler lastTerm), C must win holding
// the acked records, and A's diverged tail must then be resynced away.
func TestTakeoverRefusesLongerButStalerJournal(t *testing.T) {
	dir := t.TempDir()
	eng := sim.NewEngine()
	g, err := sim.NewControllerGroup(eng, sim.ControllerGroupConfig{
		Dir: dir, LeaseUS: 10_000, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	idA, termA, _ := g.RunUntilLeader(2_000_000, 1)
	if idA < 0 {
		t.Fatal("no first leader")
	}
	// Partition A from both peers, then let it append an un-acked tail —
	// records no other replica will ever hold.
	for p := 0; p < g.N(); p++ {
		if p != idA {
			g.SetPartitioned(idA, p, true)
		}
	}
	ja := g.Replica(idA).Journal()
	if ja == nil {
		t.Fatal("partitioned leader lost its journal handle before self-deposing")
	}
	for i := uint64(0); i < 8; i++ {
		if err := ja.LogEpoch(100+i, termA); err != nil {
			t.Fatal(err)
		}
	}
	// B wins the next term on the majority side and quorum-acks its term
	// marker to C.
	idB, termB, _ := g.RunUntilLeader(eng.Now()+2_000_000, termA+1)
	if idB < 0 {
		t.Fatal("no takeover on the majority side")
	}
	if idB == idA {
		t.Fatalf("partitioned replica %d won term %d", idA, termB)
	}
	idC := -1
	for p := 0; p < g.N(); p++ {
		if p != idA && p != idB {
			idC = p
		}
	}
	// Give replication a moment to land the term marker on C, then kill B
	// before A ever hears from it.
	eng.Run(eng.Now() + 100_000)
	g.Kill(idB)
	for p := 0; p < g.N(); p++ {
		if p != idA {
			g.SetPartitioned(idA, p, false)
		}
	}
	if g.Replica(idA).JournalBytes() <= g.Replica(idC).JournalBytes() {
		t.Fatalf("test setup: A (%d bytes) not longer than C (%d bytes), scenario void",
			g.Replica(idA).JournalBytes(), g.Replica(idC).JournalBytes())
	}
	idNew, termNew, _ := g.RunUntilLeader(eng.Now()+3_000_000, termB+1)
	if idNew < 0 {
		t.Fatal("no leader after healing the partition")
	}
	if idNew != idC {
		t.Fatalf("replica %d won term %d; want %d — the longer-but-staler journal was elected",
			idNew, termNew, idC)
	}
	// The quorum-acked term-B marker must have survived takeover...
	st, err := controller.ReplayJournal(fmt.Sprintf("%s/replica-%d.wal", dir, idC))
	if err != nil {
		t.Fatal(err)
	}
	if st.Term < termB {
		t.Fatalf("new leader's journal replays term %d, lost the quorum-acked term-%d record", st.Term, termB)
	}
	// ...and A's diverged tail must be resynced to the new leader's bytes.
	eng.Run(eng.Now() + 1_000_000)
	a, c := g.Replica(idA), g.Replica(idC)
	if a.JournalBytes() != c.JournalBytes() || a.JournalCRC() != c.JournalCRC() {
		t.Fatalf("A did not converge to the new leader: %d bytes CRC %#x vs %d bytes CRC %#x",
			a.JournalBytes(), a.JournalCRC(), c.JournalBytes(), c.JournalCRC())
	}
}

// electionHistory runs one seeded group through a kill and a healed
// partition and returns its promotion trace.
func electionHistory(t *testing.T, dir string, seed int64) []ha.Promotion {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	g, err := sim.NewControllerGroup(eng, sim.ControllerGroupConfig{
		Dir: dir, LeaseUS: 10_000, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	id0, term0, _ := g.RunUntilLeader(2_000_000, 1)
	if id0 < 0 {
		t.Fatalf("seed %d: no first leader", seed)
	}
	// Stir: kill the incumbent, force a takeover.
	g.Kill(id0)
	id1, _, _ := g.RunUntilLeader(eng.Now()+2_000_000, term0+1)
	if id1 < 0 {
		t.Fatalf("seed %d: no takeover after killing %d", seed, id0)
	}
	// Stir harder: briefly cut the new leader off one peer, then heal and
	// let the dust settle. With N=3 and one replica dead this starves the
	// lease, so the leader must self-depose and a later term re-elects.
	var peer int
	for peer = 0; peer < g.N(); peer++ {
		if peer != id1 && g.Alive(peer) {
			break
		}
	}
	g.SetPartitioned(id1, peer, true)
	eng.Run(eng.Now() + 100_000)
	g.SetPartitioned(id1, peer, false)
	g.RunUntilLeader(eng.Now()+2_000_000, 1)
	return g.Promotions()
}

// TestDeposedLeaderHandleCannotAppend: the *Journal a promotion hands the
// harness is the fence on a deposed controller. Once its replica
// self-deposes the handle refuses every Append, for good — while the
// replica, standing by again, goes on applying the new leader's frames to
// the very same file.
func TestDeposedLeaderHandleCannotAppend(t *testing.T) {
	dir := t.TempDir()
	eng := sim.NewEngine()
	handles := make(map[int]*controller.Journal)
	g, err := sim.NewControllerGroup(eng, sim.ControllerGroupConfig{
		Dir: dir, LeaseUS: 10_000, Seed: 11,
		OnPromote: func(id int, _ *controller.JournalState, j *controller.Journal, _ uint64) { handles[id] = j },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	idA, termA, _ := g.RunUntilLeader(2_000_000, 1)
	if idA < 0 {
		t.Fatal("no first leader")
	}
	stale := handles[idA]
	if err := stale.LogEpoch(1, termA); err != nil {
		t.Fatalf("the leader's handle does not append: %v", err)
	}
	for p := 0; p < g.N(); p++ {
		if p != idA {
			g.SetPartitioned(idA, p, true)
		}
	}
	if id, _, _ := g.RunUntilLeader(eng.Now()+2_000_000, termA+1); id < 0 || id == idA {
		t.Fatalf("no takeover on the majority side (leader %d)", id)
	}
	eng.Run(eng.Now() + 100_000)
	a := g.Replica(idA)
	if a.Elector().Role() == ha.RoleLeader || a.Journal() != nil {
		t.Fatal("the partitioned leader never deposed itself")
	}
	if err := stale.LogEpoch(2, termA); err == nil {
		t.Fatal("the deposed leader's handle still appends")
	}

	// Heal; whoever leads the majority now extends its journal, and the
	// deposed replica must follow on the same file its old handle wrote.
	for p := 0; p < g.N(); p++ {
		g.SetPartitioned(idA, p, false)
	}
	eng.Run(eng.Now() + 500_000)
	cur, ok := g.Leader()
	if !ok || cur.ID == idA {
		t.Fatalf("test setup: leader %+v (ok %v) after the heal, scenario void", cur, ok)
	}
	before := a.JournalBytes()
	for i := uint64(0); i < 3; i++ {
		if err := handles[cur.ID].LogEpoch(700+i, cur.Term); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run(eng.Now() + 1_000_000)
	l := g.Replica(cur.ID)
	if a.JournalBytes() <= before || a.JournalBytes() != l.JournalBytes() || a.JournalCRC() != l.JournalCRC() {
		t.Fatalf("the deposed replica did not follow: %d bytes CRC %#x (was %d) vs the leader's %d bytes CRC %#x",
			a.JournalBytes(), a.JournalCRC(), before, l.JournalBytes(), l.JournalCRC())
	}
	st, err := controller.ReplayJournal(fmt.Sprintf("%s/replica-%d.wal", dir, idA))
	if err != nil || st.Epoch != 702 || st.Bytes != a.JournalBytes() {
		t.Fatalf("the deposed replica's file replays epoch %d over %d bytes (%v), want 702 over %d",
			st.Epoch, st.Bytes, err, a.JournalBytes())
	}
	if err := stale.LogEpoch(3, termA); err == nil {
		t.Fatal("the deposed leader's handle appends again after the replica caught up")
	}
	if a.JournalBytes() != st.Bytes {
		t.Fatal("the refused append moved the journal")
	}
}
