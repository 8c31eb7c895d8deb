package controller_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/mgmt"
	"sdme/internal/policy"
)

// journalPayloads splits a journal file into its records' payloads.
func journalPayloads(tb testing.TB, raw []byte) [][]byte {
	tb.Helper()
	var out [][]byte
	for len(raw) > 0 {
		n := 8 + int(binary.BigEndian.Uint32(raw))
		out = append(out, raw[8:n])
		raw = raw[n:]
	}
	return out
}

// FuzzRestoreFromJournal feeds the restore path what FuzzJournalStream
// cannot reach: records that are framed, CRC-valid and of a known kind,
// with adversarial bodies — node ids out of range, weight rows of the
// wrong length or sign, epochs and terms running backwards. The input is
// one payload per line; the harness frames each with a good CRC, so every
// mutation gets through the door. On a fixed controller (the one that
// wrote testdata/pr12.journal) OpenJournal → Replay → RestoreFromJournal
// must never panic, and must either refuse or restore a failed set of real
// middleboxes and a plan whose nodes, when RestoreFromJournal under Verify
// accepts the plan and BuildNodesFromPlan builds them, carry
// configurations the management channel would accept.
func FuzzRestoreFromJournal(f *testing.F) {
	raw, err := os.ReadFile("testdata/pr12.journal")
	if err != nil {
		f.Fatal(err)
	}
	golden := journalPayloads(f, raw)
	f.Add(bytes.Join(golden, []byte("\n")))
	with := func(extra string) []byte {
		return bytes.Join(append(golden[:len(golden):len(golden)], []byte(extra)), []byte("\n"))
	}
	f.Add(with(`{"t":"jrnl-failed","data":{"failed":[-1,99999,4]}}`))
	f.Add(with(`{"t":"jrnl-weights","data":{"lambda":-1,"nodes":[{"node":99999,"rows":[{"policy_id":0,"func":1,"w":[1e308,-5]}]}]}}`))
	f.Add(with(`{"t":"jrnl-weights","data":{"lambda":400,"nodes":[{"node":9,"rows":[{"policy_id":0,"func":1,"w":[1]},{"policy_id":7,"func":9,"w":[]}]}]}}`))
	f.Add(with(`{"t":"jrnl-epoch","data":{"epoch":1,"term":0}}`))

	b := newBed(f, 62, webPolicy)
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.journal")
		var file []byte
		for _, payload := range bytes.Split(data, []byte("\n")) {
			var hdr [8]byte
			binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
			binary.BigEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
			file = append(append(file, hdr[:]...), payload...)
		}
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := controller.OpenJournal(path)
		if err != nil {
			return
		}
		st, err := j.Replay()
		if cerr := j.Close(); err != nil || cerr != nil {
			t.Fatalf("a journal that opens does not replay: %v, %v", err, cerr)
		}
		ctl := controller.New(b.dep, b.ap, b.tbl, controller.Options{
			Strategy: enforce.LoadBalanced,
			K:        map[policy.FuncType]int{policy.FuncFW: 2, policy.FuncIDS: 2},
			Verify:   true,
		})
		if ctl.RestoreFromJournal(st) != nil {
			return
		}
		for _, id := range ctl.Failed() {
			if !slices.Contains(b.dep.MBNodes, id) {
				t.Fatalf("restore marked node %v failed; it is not a middlebox", id)
			}
		}
		plan := ctl.NewPipeline(controller.PipelineOptions{}).Plan()
		if plan == nil {
			return
		}
		nodes, err := ctl.BuildNodesFromPlan(plan)
		if err != nil {
			return
		}
		for id, n := range nodes {
			dto := mgmt.ConfigToDTO(st.Epoch, n.Config())
			if err := dto.Validate(); err != nil {
				t.Fatalf("restore built node %v with a configuration the wire refuses: %v", id, err)
			}
		}
	})
}
