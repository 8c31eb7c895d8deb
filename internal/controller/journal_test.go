package controller_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/netaddr"
	"sdme/internal/policy"
	"sdme/internal/topo"
)

func journalPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "ctl.wal")
}

// replayed opens the journal at path, replays it and closes it again, as
// a restarted controller's AttachJournal does.
func replayed(t testing.TB, path string) *controller.JournalState {
	t.Helper()
	j, err := controller.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := j.Replay()
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestJournalAppendReplayRoundTrip(t *testing.T) {
	path := journalPath(t)
	j, err := controller.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(controller.JournalFailed, controller.FailedRecord{Failed: []int{7, 9}}); err != nil {
		t.Fatal(err)
	}
	if err := j.LogEpoch(3, 0); err != nil {
		t.Fatal(err)
	}
	if err := j.LogEpoch(5, 0); err != nil {
		t.Fatal(err)
	}
	// A later failed-set supersedes the earlier one wholesale.
	if err := j.Append(controller.JournalFailed, controller.FailedRecord{Failed: []int{9}}); err != nil {
		t.Fatal(err)
	}
	if recs, bytes := j.Records(), j.Size(); recs != 4 || bytes == 0 {
		t.Errorf("journal holds %d records, %d bytes", recs, bytes)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}

	st := replayed(t, path)
	if st.Torn {
		t.Error("clean journal reported torn")
	}
	if st.Records != 4 {
		t.Errorf("records = %d, want 4", st.Records)
	}
	if st.Epoch != 5 {
		t.Errorf("epoch = %d, want high-water 5", st.Epoch)
	}
	if !reflect.DeepEqual(st.Failed, []topo.NodeID{9}) {
		t.Errorf("failed = %v, want last-record-wins [9]", st.Failed)
	}
}

func TestJournalEpochHighWaterIsMonotonic(t *testing.T) {
	path := journalPath(t)
	j, err := controller.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	// A restarted controller re-logging an older epoch (e.g. a replayed
	// push racing a stale record) must not move the high-water back.
	for _, e := range []uint64{4, 2, 3} {
		if err := j.LogEpoch(e, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	st := replayed(t, path)
	if st.Epoch != 4 {
		t.Errorf("epoch = %d, want 4", st.Epoch)
	}
}

func TestJournalTornTailTolerated(t *testing.T) {
	path := journalPath(t)
	j, err := controller.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.LogEpoch(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := j.LogEpoch(2, 0); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The second record starts right after the first: 8-byte header plus
	// the BE payload length in the header's first word.
	boundary := 8 + int(uint32(clean[0])<<24|uint32(clean[1])<<16|uint32(clean[2])<<8|uint32(clean[3]))
	if boundary <= 8 || boundary >= len(clean) {
		t.Fatalf("bad record boundary %d (file %d bytes)", boundary, len(clean))
	}
	// Crash mid-append: EVERY truncation point inside the last record —
	// partial header or partial payload — must replay to the intact first
	// record, flag the torn tail, and not error.
	for cut := boundary; cut < len(clean); cut++ {
		if err := os.WriteFile(path, clean[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st := replayed(t, path)
		wantTorn := cut != boundary // exact boundary is a clean EOF
		if st.Records != 1 || st.Torn != wantTorn || st.Epoch != 1 {
			t.Fatalf("cut at %d: records=%d torn=%v epoch=%d, want 1/%v/1",
				cut, st.Records, st.Torn, st.Epoch, wantTorn)
		}
	}
}

func TestJournalCRCCorruptionStopsReplay(t *testing.T) {
	path := journalPath(t)
	j, err := controller.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.LogEpoch(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := j.LogEpoch(2, 0); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte in the LAST record: its CRC fails, replay
	// keeps the intact prefix.
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	st := replayed(t, path)
	if st.Records != 1 || !st.Torn || st.Epoch != 1 {
		t.Errorf("records=%d torn=%v epoch=%d, want 1/true/1", st.Records, st.Torn, st.Epoch)
	}
}

func TestJournalAppendAfterCloseFails(t *testing.T) {
	j, err := controller.OpenJournal(journalPath(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.LogEpoch(1, 0); err == nil {
		t.Error("append after close succeeded")
	}
}

// TestSetJournalWritesOnlyTheFingerprint: attaching a journal records the
// deployment fingerprint and nothing else (no policy-table dump), so a
// start, restart or promotion costs one append and one fsync.
func TestSetJournalWritesOnlyTheFingerprint(t *testing.T) {
	b := newBed(t, 60, webPolicy)
	ctl := controller.New(b.dep, b.ap, b.tbl, controller.Options{})
	path := journalPath(t)
	j, err := controller.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.SetJournal(j); err != nil {
		t.Fatal(err)
	}
	if got := j.Records(); got != 1 {
		t.Errorf("a freshly attached journal holds %d records, want 1", got)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if st := replayed(t, path); st.Records != 1 || st.Fingerprint != ctl.Fingerprint() {
		t.Errorf("replayed %d records, fingerprint %#x; want 1 record of %#x", st.Records, st.Fingerprint, ctl.Fingerprint())
	}
}

func TestRestoreFromJournalFingerprintGate(t *testing.T) {
	b := newBed(t, 61, webPolicy)
	ctl := controller.New(b.dep, b.ap, b.tbl, controller.Options{
		Strategy: enforce.LoadBalanced,
		K:        map[policy.FuncType]int{policy.FuncFW: 2, policy.FuncIDS: 2},
	})
	path := journalPath(t)
	j, err := controller.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.SetJournal(j); err != nil {
		t.Fatal(err)
	}
	mb := b.dep.MBNodes[0]
	if err := ctl.MarkFailed(mb, true); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	st := replayed(t, path)
	if st.Fingerprint != ctl.Fingerprint() {
		t.Fatal("journal fingerprint does not match the controller that wrote it")
	}

	// Same inputs → restore succeeds and reproduces the failed set.
	twin := controller.New(b.dep, b.ap, b.tbl, controller.Options{
		Strategy: enforce.LoadBalanced,
		K:        map[policy.FuncType]int{policy.FuncFW: 2, policy.FuncIDS: 2},
	})
	if err := twin.RestoreFromJournal(st); err != nil {
		t.Fatal(err)
	}
	if got := twin.Failed(); len(got) != 1 || got[0] != mb {
		t.Errorf("restored failed set = %v, want [%v]", got, mb)
	}

	// Different planning options → different fingerprint → refused.
	other := controller.New(b.dep, b.ap, b.tbl, controller.Options{Strategy: enforce.HotPotato})
	if err := other.RestoreFromJournal(st); err == nil {
		t.Error("restore accepted a journal from a differently-configured controller")
	}
}

func TestJournalRestoredSolutionRoundTrip(t *testing.T) {
	b := newBed(t, 62, webPolicy)
	opts := controller.Options{
		Strategy: enforce.LoadBalanced,
		K:        map[policy.FuncType]int{policy.FuncFW: 2, policy.FuncIDS: 2},
	}
	ctl := controller.New(b.dep, b.ap, b.tbl, opts)
	path := journalPath(t)
	j, err := controller.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.SetJournal(j); err != nil {
		t.Fatal(err)
	}
	pid := b.tbl.All()[0].ID
	meas := controller.Measurements{
		{PolicyID: pid, SrcSubnet: 1, DstSubnet: 2}: 500,
		{PolicyID: pid, SrcSubnet: 2, DstSubnet: 3}: 300,
	}
	pipe, nodes, _ := deploy(t, ctl, meas)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	st := replayed(t, path)

	// One step: the restored controller's pipeline starts from the
	// journaled plan, and a build from it is the pre-crash export.
	twin := controller.New(b.dep, b.ap, b.tbl, opts)
	if err := twin.RestoreFromJournal(st); err != nil {
		t.Fatal(err)
	}
	pipe2 := twin.NewPipeline(controller.PipelineOptions{})
	got, want := pipe2.Plan(), pipe.Plan()
	if got == nil {
		t.Fatal("restored pipeline has no plan")
	}
	if got.Lambda != want.Lambda {
		t.Errorf("lambda = %v, want %v", got.Lambda, want.Lambda)
	}
	if !reflect.DeepEqual(got.Weights, want.Weights) {
		t.Errorf("weights diverged through the journal:\n%v\n%v", got.Weights, want.Weights)
	}
	nodes2, err := twin.BuildNodesFromPlan(got)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := exportBytes(t, ctl, nodes), exportBytes(t, twin, nodes2); !bytes.Equal(a, b) {
		t.Errorf("restored export differs from the pre-crash export")
	}
	// No instance loads were journaled, so the next solve carries nothing.
	upd, err := pipe2.Recompute(meas)
	if err != nil {
		t.Fatal(err)
	}
	if !upd.Stats.FullSolve {
		t.Errorf("first Recompute after a restore was not a full solve: %+v", upd.Stats)
	}
	if upd.Stats.Delta.Total() != 0 {
		t.Errorf("re-solving the journaled inputs changed the plan: %+v", upd.Stats.Delta)
	}

	// A journal with no weights record restores a plan without weights.
	bare := controller.New(b.dep, b.ap, b.tbl, opts)
	if err := bare.RestoreFromJournal(&controller.JournalState{Fingerprint: bare.Fingerprint()}); err != nil {
		t.Fatal(err)
	}
	if p := bare.NewPipeline(controller.PipelineOptions{}).Plan(); p == nil || p.Weights != nil {
		t.Errorf("weightless journal restored %+v", p)
	}
}

// TestReplayParentCommitJournal replays a journal written by the commit
// before the one-loop refactor (testdata/pr12.journal: deploy, policies,
// weights, epoch 3, failed set, epoch 4 at term 2): the record format is
// unchanged, so old journals restore into the pipeline.
func TestReplayParentCommitJournal(t *testing.T) {
	raw, err := os.ReadFile("testdata/pr12.journal")
	if err != nil {
		t.Fatal(err)
	}
	path := journalPath(t) // opening a journal may cut a torn tail: not in testdata
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	st := replayed(t, path)
	if st.Torn || st.Records != 6 || st.Epoch != 4 || st.Term != 2 || st.Lambda != 400 || len(st.Weights) != 5 {
		t.Fatalf("replayed state: records %d torn %v epoch %d term %d λ %v weighted nodes %d",
			st.Records, st.Torn, st.Epoch, st.Term, st.Lambda, len(st.Weights))
	}
	b := newBed(t, 62, webPolicy)
	ctl := controller.New(b.dep, b.ap, b.tbl, controller.Options{
		Strategy: enforce.LoadBalanced,
		K:        map[policy.FuncType]int{policy.FuncFW: 2, policy.FuncIDS: 2},
	})
	if err := ctl.RestoreFromJournal(st); err != nil {
		t.Fatal(err)
	}
	dead := b.dep.Providers(policy.FuncFW)[0]
	if got := ctl.Failed(); len(got) != 1 || got[0] != dead {
		t.Errorf("restored failed set = %v, want [%v]", got, dead)
	}
	plan := ctl.NewPipeline(controller.PipelineOptions{}).Plan()
	if plan == nil || plan.Lambda != 400 || !reflect.DeepEqual(plan.Weights, st.Weights) {
		t.Fatalf("restored plan does not carry the journaled weights: %+v", plan)
	}
	for x, byFunc := range plan.Candidates {
		for _, mb := range byFunc[policy.FuncFW] {
			if mb == dead {
				t.Errorf("node %v still lists the failed firewall", x)
			}
		}
	}
}

// TestFingerprintPinned pins Fingerprint's output for two fixed controllers.
// The first is the value in testdata/pr12.journal's deploy record.
// RestoreFromJournal refuses a journal whose fingerprint differs, so a
// change to what Fingerprint hashes — removing an option it covers, say —
// must keep the values of the options every product path could have set,
// or it orphans every journal written before it. The second sets every
// option still hashed; it moved once, when the λ cap it set went.
func TestFingerprintPinned(t *testing.T) {
	b := newBed(t, 62, webPolicy)
	for _, tt := range []struct {
		name string
		opts controller.Options
		want uint64
	}{
		{"pr12.journal", controller.Options{
			Strategy: enforce.LoadBalanced,
			K:        map[policy.FuncType]int{policy.FuncFW: 2, policy.FuncIDS: 2},
		}, 3890866397437025038},
		{"every hashed option set", controller.Options{
			Strategy: enforce.Random, K: map[policy.FuncType]int{policy.FuncFW: 3},
			LabelSwitching: true, FlowTTL: 500, LabelTTL: 700, HashSeed: 99,
		}, 16850638202121856798},
	} {
		if got := controller.New(b.dep, b.ap, b.tbl, tt.opts).Fingerprint(); got != tt.want {
			t.Errorf("%s: fingerprint %d, recorded %d", tt.name, got, tt.want)
		}
	}
}

// TestRollbackRejournalsTheRestoredPlan: weights are journaled
// write-ahead, so a plan the fleet then refuses is the journal's last
// weights record. Rollback restores the previous plan as the pipeline's
// diff base and journals it again, so a restart reproduces what the
// fleet holds rather than what it refused.
func TestRollbackRejournalsTheRestoredPlan(t *testing.T) {
	b := newBed(t, 63, webPolicy)
	ctl := controller.New(b.dep, b.ap, b.tbl, controller.Options{
		Strategy: enforce.LoadBalanced,
		K:        map[policy.FuncType]int{policy.FuncFW: 2, policy.FuncIDS: 2},
	})
	path := journalPath(t)
	j, err := controller.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.SetJournal(j); err != nil {
		t.Fatal(err)
	}
	pid := b.tbl.All()[0].ID
	pipe, _, _ := deploy(t, ctl, controller.Measurements{{PolicyID: pid, SrcSubnet: 1, DstSubnet: 2}: 500})
	held := pipe.Plan()

	refused, err := pipe.Recompute(controller.Measurements{{PolicyID: pid, SrcSubnet: 3, DstSubnet: 4}: 900})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(refused.Plan.Weights, held.Weights) {
		t.Fatal("the second plan does not differ; the test proves nothing")
	}
	if err := pipe.Rollback(); err != nil {
		t.Fatal(err)
	}
	if pipe.Plan() != held {
		t.Fatal("Rollback did not restore the previous plan")
	}
	// One Recompute, one undo: a second Rollback has nothing to restore.
	if err := pipe.Rollback(); err != nil || pipe.Plan() != held {
		t.Fatalf("second Rollback: err %v, plan changed %v", err, pipe.Plan() != held)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	st := replayed(t, path)
	if st.Lambda != held.Lambda || !reflect.DeepEqual(st.Weights, held.Weights) {
		t.Errorf("journal ends on λ=%v, want the restored plan's λ=%v and weights", st.Lambda, held.Lambda)
	}
}

// TestRollbackToWeightlessPlanJournalsIt: the fleet runs a plan without
// weights (no demand measured yet), the next plan is solved, journaled
// write-ahead and refused. Rollback must journal the weightless plan too,
// or a restore brings back the refused plan's weights.
func TestRollbackToWeightlessPlanJournalsIt(t *testing.T) {
	b := newBed(t, 67, webPolicy)
	opts := controller.Options{
		Strategy: enforce.LoadBalanced,
		K:        map[policy.FuncType]int{policy.FuncFW: 2, policy.FuncIDS: 2},
	}
	ctl := controller.New(b.dep, b.ap, b.tbl, opts)
	path := journalPath(t)
	j, err := controller.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.SetJournal(j); err != nil {
		t.Fatal(err)
	}
	pipe, nodes, _ := deploy(t, ctl, nil)
	if len(pipe.Plan().Weights) != 0 {
		t.Fatal("the first plan has weights; the test proves nothing")
	}
	pid := b.tbl.All()[0].ID
	if _, err := pipe.Recompute(controller.Measurements{{PolicyID: pid, SrcSubnet: 1, DstSubnet: 2}: 500}); err != nil {
		t.Fatal(err)
	}
	if err := pipe.Rollback(); err != nil {
		t.Fatal(err)
	}
	requireJournalMatchesPipeline(t, b, opts, ctl, j, path, nodes)
}

// TestRestoreWithStarvedFunction: a journal whose failed set leaves a
// function without a live provider still restores (the failed set is
// state the controller must not lose); there is just no plan to start
// from, and the first Recompute reports the starvation as it would live.
func TestRestoreWithStarvedFunction(t *testing.T) {
	b := newBed(t, 64, webPolicy)
	ctl := controller.New(b.dep, b.ap, b.tbl, controller.Options{Strategy: enforce.HotPotato})
	st := &controller.JournalState{Fingerprint: ctl.Fingerprint(), Failed: b.dep.Providers(policy.FuncIDS)}
	if err := ctl.RestoreFromJournal(st); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got := ctl.Failed(); len(got) != len(st.Failed) {
		t.Errorf("restored failed set = %v, want %v", got, st.Failed)
	}
	pipe := ctl.NewPipeline(controller.PipelineOptions{})
	if pipe.Plan() != nil {
		t.Error("a plan was restored although IDS has no live provider")
	}
	if _, err := pipe.Recompute(nil); !errors.Is(err, controller.ErrNoLiveProvider) {
		t.Errorf("Recompute: %v, want ErrNoLiveProvider", err)
	}
}

// requireJournalMatchesPipeline closes the journal at path, restores a
// twin of ctl (same inputs as ctl has now) from it and requires a build
// from the restored plan to export the bytes the pipeline's nodes do: the
// journal's last weights record is the plan the fleet runs.
func requireJournalMatchesPipeline(t *testing.T, b *bed, opts controller.Options, ctl *controller.Controller, j *controller.Journal, path string, nodes map[topo.NodeID]*enforce.Node) {
	t.Helper()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	st := replayed(t, path)
	twin := controller.New(b.dep, b.ap, b.tbl, opts)
	if err := twin.RestoreFromJournal(st); err != nil {
		t.Fatal(err)
	}
	restored, err := twin.BuildNodesFromPlan(twin.NewPipeline(controller.PipelineOptions{}).Plan())
	if err != nil {
		t.Fatal(err)
	}
	if a, b := exportBytes(t, ctl, nodes), exportBytes(t, twin, restored); !bytes.Equal(a, b) {
		t.Errorf("the journal restores another plan than the pipeline runs (restored export %d bytes, pipeline's %d)", len(b), len(a))
	}
}

// TestRecomputeWithoutDemandJournalsDroppedWeights: a Recompute with no
// measurements after a solved plan runs no LP and drops every weight
// vector. The journal must say so, or a restore resurrects the old ones.
func TestRecomputeWithoutDemandJournalsDroppedWeights(t *testing.T) {
	b := newBed(t, 65, webPolicy)
	opts := controller.Options{
		Strategy: enforce.LoadBalanced,
		K:        map[policy.FuncType]int{policy.FuncFW: 2, policy.FuncIDS: 2},
	}
	ctl := controller.New(b.dep, b.ap, b.tbl, opts)
	path := journalPath(t)
	j, err := controller.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.SetJournal(j); err != nil {
		t.Fatal(err)
	}
	pid := b.tbl.All()[0].ID
	pipe, nodes, _ := deploy(t, ctl, controller.Measurements{{PolicyID: pid, SrcSubnet: 1, DstSubnet: 2}: 500})
	if len(pipe.Plan().Weights) == 0 {
		t.Fatal("the solved plan has no weights; the test proves nothing")
	}
	if upd := recompute(t, pipe, nodes, nil); upd.Solution != nil || len(upd.Plan.Weights) != 0 {
		t.Fatalf("Recompute(nil) solved %v and kept %d weighted nodes", upd.Solution != nil, len(upd.Plan.Weights))
	}
	requireJournalMatchesPipeline(t, b, opts, ctl, j, path, nodes)
}

// TestRemovingMeasuredPolicyJournalsDroppedWeights: removing a measured
// policy leaves no instance dirty, so the pipeline carries the other
// policies' weights forward without an LP and drops the removed one's
// vectors. The journal must record that plan too.
func TestRemovingMeasuredPolicyJournalsDroppedWeights(t *testing.T) {
	b := newBed(t, 66, func(tbl *policy.Table) {
		webPolicy(tbl)
		d := policy.NewDescriptor()
		d.DstPort = netaddr.SinglePort(443)
		tbl.Add(d, policy.ActionList{policy.FuncFW})
	})
	opts := controller.Options{
		Strategy: enforce.LoadBalanced,
		K:        map[policy.FuncType]int{policy.FuncFW: 2, policy.FuncIDS: 2},
	}
	ctl := controller.New(b.dep, b.ap, b.tbl, opts)
	path := journalPath(t)
	j, err := controller.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.SetJournal(j); err != nil {
		t.Fatal(err)
	}
	web, tls := b.tbl.All()[0].ID, b.tbl.All()[1].ID
	meas := controller.Measurements{
		{PolicyID: web, SrcSubnet: 1, DstSubnet: 2}: 500,
		{PolicyID: tls, SrcSubnet: 2, DstSubnet: 3}: 300,
	}
	pipe, nodes, _ := deploy(t, ctl, meas)

	b.tbl.Remove(tls)
	pipe.PolicyChanged(tls)
	delete(meas, enforce.MeasKey{PolicyID: tls, SrcSubnet: 2, DstSubnet: 3})
	// The policy table is a static input: record the edited one.
	if err := ctl.SetJournal(j); err != nil {
		t.Fatal(err)
	}
	upd := recompute(t, pipe, nodes, meas)
	if upd.Solution != nil || upd.Stats.Dirty != 0 {
		t.Fatalf("removal re-solved (solution %v, %d dirty); the test proves nothing", upd.Solution != nil, upd.Stats.Dirty)
	}
	dropped := 0
	for _, d := range upd.Deltas {
		dropped += len(d.DropWeights)
	}
	if dropped == 0 {
		t.Fatal("the removal dropped no weight vector; the test proves nothing")
	}
	requireJournalMatchesPipeline(t, b, opts, ctl, j, path, nodes)
}
