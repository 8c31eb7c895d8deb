package controller

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"sdme/internal/mgmt"
)

// mkFrame builds one on-disk journal frame around an arbitrary payload.
func mkFrame(payload []byte) []byte {
	out := make([]byte, 8+len(payload))
	binary.BigEndian.PutUint32(out[:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(out[4:8], crc32.ChecksumIEEE(payload))
	copy(out[8:], payload)
	return out
}

// realFrames appends a few records through the real Journal and returns
// the file's bytes — genuine frames for the fuzz corpus.
func realFrames(tb testing.TB) []byte {
	tb.Helper()
	dir := tb.TempDir()
	path := filepath.Join(dir, "seed.wal")
	j, err := OpenJournal(path)
	if err != nil {
		tb.Fatal(err)
	}
	if err := j.LogEpoch(1, 1); err != nil {
		tb.Fatal(err)
	}
	if err := j.LogEpoch(2, 1); err != nil {
		tb.Fatal(err)
	}
	if err := j.Close(); err != nil {
		tb.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// FuzzJournalStream hammers the door streamed frames come in by:
// whatever bytes arrive, ApplyFrames must persist a prefix of the input
// and nothing past the first frame that is corrupt or that replay would
// refuse, report an error exactly when it left something out, and leave a
// file that reopens to the same totals and that replays without error.
func FuzzJournalStream(f *testing.F) {
	good := realFrames(f)
	f.Add(good)
	f.Add([]byte{})
	f.Add(good[:len(good)-3])            // torn tail
	f.Add(append([]byte{0, 0}, good...)) // garbage header
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 0xff
	f.Add(flipped) // CRC mismatch in the last frame
	env := []byte(`{"t":"journal","data":{}}`)
	f.Add(append(mkFrame(env), mkFrame(env)...)) // unknown kind
	huge := make([]byte, 8)
	binary.BigEndian.PutUint32(huge[:4], 1<<30)
	f.Add(huge)                                                                                    // insane length field
	f.Add(append(good[:len(good):len(good)], mkFrame([]byte(`{"t":"jrnl-epoch","data":"x"}`))...)) // mis-shaped body

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "standby.wal")
		j, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		n, aerr := j.ApplyFrames(0, data)
		if n < 0 || n > int64(len(data)) {
			t.Fatalf("ApplyFrames reports %d durable bytes of a %d-byte input", n, len(data))
		}
		if (aerr == nil) != (n == int64(len(data))) {
			t.Fatalf("ApplyFrames persisted %d of %d bytes with error %v", n, len(data), aerr)
		}
		if n != j.Size() {
			t.Fatalf("ApplyFrames returned %d, Size is %d", n, j.Size())
		}
		records, crc := j.Records(), j.CRC()
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		onDisk, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(onDisk, data[:n]) {
			t.Fatalf("the file holds %d bytes that are not the input's first %d", len(onDisk), n)
		}

		// The persisted prefix survives a reopen untouched, applies again
		// whole and without error, and is a journal replay accepts.
		j2, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		defer j2.Close() //nolint:errcheck // read-only reopen
		if j2.Size() != n || j2.Records() != records || j2.CRC() != crc {
			t.Fatalf("reopen found %d bytes, %d records, CRC %#x; expected %d, %d, %#x",
				j2.Size(), j2.Records(), j2.CRC(), n, records, crc)
		}
		again, err := OpenJournal(filepath.Join(t.TempDir(), "again.wal"))
		if err != nil {
			t.Fatal(err)
		}
		defer again.Close() //nolint:errcheck // test teardown
		if n2, err := again.ApplyFrames(0, data[:n]); err != nil || n2 != n || again.Records() != records {
			t.Fatalf("re-applying the intact prefix: %v (%d/%d bytes, %d/%d records)", err, n2, n, again.Records(), records)
		}
		st, err := j2.Replay()
		if err != nil {
			t.Fatalf("replay refuses what ApplyFrames persisted: %v", err)
		}
		if st.Torn || st.Bytes != n || int64(st.Records) != records {
			t.Fatalf("replay saw %d bytes, %d records, torn %v; the journal holds %d, %d",
				st.Bytes, st.Records, st.Torn, n, records)
		}
	})
}

// TestStandbyRefusesWhatReplayRefuses: a CRC-valid frame whose record
// replay would refuse — an unknown kind, a body of the wrong shape — used
// to be persisted, fsynced and acked by a standby, which then could
// neither take over nor restart. Nothing of it may reach the disk, the
// records before it must, and the length reported stays the true one.
func TestStandbyRefusesWhatReplayRefuses(t *testing.T) {
	good := realFrames(t)
	for _, payload := range []string{
		`{"t":"journal","data":{}}`,
		`{"t":"jrnl-epoch","data":"x"}`,
		`{"t":"jrnl-policies","data":{"policies":"x"}}`, // a legacy kind, still checked for shape
	} {
		path := filepath.Join(t.TempDir(), "standby.wal")
		j, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		bad := mkFrame([]byte(payload))
		if n, err := j.ApplyFrames(0, bad); err == nil || n != 0 {
			t.Errorf("%s alone: %d bytes persisted, err %v", payload, n, err)
		}
		batch := append(append([]byte(nil), good...), bad...)
		if n, err := j.ApplyFrames(0, append(batch, good...)); err == nil || n != int64(len(good)) {
			t.Errorf("%s mid-batch: %d bytes persisted (want the %d before it), err %v", payload, n, len(good), err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if st, err := scanFile(path); err != nil || st.Records != 2 || st.Torn {
			t.Errorf("%s: replay of the standby's file: %+v, %v", payload, st, err)
		}
	}
}

// TestApplyFramesOffsetGap: a batch landing anywhere but the journal's
// exact current length must be refused whole, even when perfectly valid.
func TestApplyFramesOffsetGap(t *testing.T) {
	good := realFrames(t)
	dir := t.TempDir()
	sj, err := OpenJournal(filepath.Join(dir, "standby.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer sj.Close() //nolint:errcheck // test cleanup
	if _, err := sj.ApplyFrames(8, good); err == nil {
		t.Fatal("gap offset accepted")
	}
	if sj.Size() != 0 {
		t.Fatalf("gap batch persisted %d bytes", sj.Size())
	}
	if _, err := sj.ApplyFrames(0, good); err != nil {
		t.Fatal(err)
	}
	if sj.Size() != int64(len(good)) {
		t.Fatalf("valid batch persisted %d of %d bytes", sj.Size(), len(good))
	}
}

// TestJournalCRCAt: the prefix CRC a catch-up chunk carries must agree
// with the running CRC the journal maintains incrementally.
func TestJournalCRCAt(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(filepath.Join(dir, "j.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close() //nolint:errcheck // test teardown
	if err := j.LogEpoch(1, 1); err != nil {
		t.Fatal(err)
	}
	mid := j.Size()
	midCRC := j.CRC()
	if err := j.LogEpoch(2, 1); err != nil {
		t.Fatal(err)
	}
	if crc, err := j.CRCAt(0); err != nil || crc != 0 {
		t.Fatalf("CRCAt(0) = %#x, %v; want 0, nil", crc, err)
	}
	if crc, err := j.CRCAt(mid); err != nil || crc != midCRC {
		t.Fatalf("CRCAt(%d) = %#x, %v; want %#x, nil", mid, crc, err, midCRC)
	}
	if crc, err := j.CRCAt(j.Size()); err != nil || crc != j.CRC() {
		t.Fatalf("CRCAt(size) = %#x, %v; want %#x, nil", crc, err, j.CRC())
	}
	if _, err := j.CRCAt(j.Size() + 1); err == nil {
		t.Fatal("CRCAt past the journal end did not error")
	}
}

// epochFrames builds n valid frames, each one epoch record.
func epochFrames(tb testing.TB, rng *rand.Rand, n int) []byte {
	tb.Helper()
	var out []byte
	for i := 0; i < n; i++ {
		env, err := mgmt.EncodeEnvelope(JournalEpoch, EpochRecord{Epoch: rng.Uint64() >> 12, Term: uint64(rng.Intn(9))})
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, mkFrame(env)...)
	}
	return out
}

// TestJournalOneFileProperty drives one journal file through a seeded
// random mix of everything both roles do to it — Append, ApplyFrames (a
// valid batch at the right offset, a valid batch at a wrong one, a batch
// with a corrupt tail), TruncateTo, close and re-open — against a model
// of the bytes that should be on disk. After every step the journal's
// running totals must equal the model's, a fresh scan of the file's, and
// CRCAt(Size) must equal CRC.
func TestJournalOneFileProperty(t *testing.T) {
	seeds := int64(20)
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		path := filepath.Join(t.TempDir(), "one.wal")
		j, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		var model []byte
		ends := []int{0} // record boundaries in model, ascending
		grow := func(frames []byte, records int) {
			for off := 0; records > 0; records-- {
				off += 8 + int(binary.BigEndian.Uint32(frames[off:]))
				ends = append(ends, len(model)+off)
			}
			model = append(model, frames[:ends[len(ends)-1]-len(model)]...)
		}
		for step := 0; step < 120; step++ {
			what := rng.Intn(6)
			switch what {
			case 0: // Append
				before := j.Size()
				if err := j.LogEpoch(rng.Uint64()>>12, uint64(rng.Intn(9))); err != nil {
					t.Fatalf("seed %d step %d: append: %v", seed, step, err)
				}
				raw, err := j.ReadChunk(before, 1<<20)
				if err != nil {
					t.Fatal(err)
				}
				grow(raw, 1)
			case 1: // a valid batch where it belongs
				n := 1 + rng.Intn(4)
				frames := epochFrames(t, rng, n)
				if got, err := j.ApplyFrames(int64(len(model)), frames); err != nil || got != int64(len(model)+len(frames)) {
					t.Fatalf("seed %d step %d: valid batch: %d, %v", seed, step, got, err)
				}
				grow(frames, n)
			case 2: // a valid batch anywhere else
				off := int64(len(model)) + 1 + int64(rng.Intn(64))
				if len(model) > 0 && rng.Intn(2) == 0 {
					off = int64(rng.Intn(len(model)))
				}
				if got, err := j.ApplyFrames(off, epochFrames(t, rng, 2)); err == nil || got != int64(len(model)) {
					t.Fatalf("seed %d step %d: batch at %d of %d: %d, %v", seed, step, off, len(model), got, err)
				}
			case 3: // a batch whose tail is corrupt: the prefix lands, no more
				n := rng.Intn(3)
				frames := epochFrames(t, rng, n)
				bad := epochFrames(t, rng, 1)
				bad[len(bad)-1-rng.Intn(len(bad)-8)] ^= 0x5a
				if rng.Intn(3) == 0 {
					bad = bad[:1+rng.Intn(len(bad)-1)]
				}
				got, err := j.ApplyFrames(int64(len(model)), append(frames[:len(frames):len(frames)], bad...))
				if err == nil || got != int64(len(model)+len(frames)) {
					t.Fatalf("seed %d step %d: corrupt-tail batch: %d, %v", seed, step, got, err)
				}
				grow(frames, n)
			case 4: // TruncateTo, on a record boundary or inside a record
				n := rng.Intn(len(model) + 1)
				if err := j.TruncateTo(int64(n)); err != nil {
					t.Fatalf("seed %d step %d: truncate to %d: %v", seed, step, n, err)
				}
				for ends[len(ends)-1] > n {
					ends = ends[:len(ends)-1]
				}
				model = model[:ends[len(ends)-1]]
			case 5:
				if err := j.Close(); err != nil {
					t.Fatal(err)
				}
				if j, err = OpenJournal(path); err != nil {
					t.Fatal(err)
				}
			}
			onDisk, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			scan, err := scanFile(path)
			if err != nil {
				t.Fatalf("seed %d step %d (op %d): fresh scan: %v", seed, step, what, err)
			}
			crcAt, err := j.CRCAt(j.Size())
			if err != nil {
				t.Fatal(err)
			}
			want := crc32.ChecksumIEEE(model)
			if !bytes.Equal(onDisk, model) || j.Size() != int64(len(model)) || j.CRC() != want || j.Records() != int64(len(ends)-1) ||
				scan.Torn || scan.Bytes != j.Size() || int64(scan.Records) != j.Records() || crcAt != want {
				t.Fatalf("seed %d step %d (op %d): journal %d bytes %d records CRC %#x CRCAt %#x; scan %d bytes %d records torn %v; "+
					"model %d bytes %d records CRC %#x; file %d bytes",
					seed, step, what, j.Size(), j.Records(), j.CRC(), crcAt, scan.Bytes, scan.Records, scan.Torn,
					len(model), len(ends)-1, want, len(onDisk))
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJournalWriterFence: while the file is lent, only the writer handle
// writes, and only by Append; once that handle is closed it is dead for
// good — also after the file is lent again — and the lender is back to
// applying frames. Closing the lender closes the file under every handle.
func TestJournalWriterFence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	j, err := OpenJournal(filepath.Join(t.TempDir(), "lent.wal"))
	if err != nil {
		t.Fatal(err)
	}
	w := j.Writer()
	if err := w.LogEpoch(1, 1); err != nil {
		t.Fatalf("the writer cannot append: %v", err)
	}
	size := j.Size()
	if _, err := j.ApplyFrames(size, epochFrames(t, rng, 1)); err == nil {
		t.Error("frames applied while the file is lent")
	}
	if _, err := w.ApplyFrames(size, epochFrames(t, rng, 1)); err == nil {
		t.Error("frames applied through the writer handle")
	}
	if j.TruncateTo(0) == nil || j.LogEpoch(2, 1) == nil {
		t.Error("the lender wrote while the file is lent")
	}
	if j.Size() != size {
		t.Fatalf("a refused write moved the journal: %d -> %d", size, j.Size())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.LogEpoch(3, 1) == nil {
		t.Error("a closed writer handle appended")
	}
	if _, err := j.ApplyFrames(size, epochFrames(t, rng, 2)); err != nil {
		t.Errorf("the lender cannot apply frames after the writer closed: %v", err)
	}
	w2 := j.Writer()
	if w.LogEpoch(4, 2) == nil {
		t.Error("the first writer handle came back to life when the file was lent again")
	}
	if err := w2.LogEpoch(5, 2); err != nil {
		t.Errorf("the second writer cannot append: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if w2.LogEpoch(6, 2) == nil {
		t.Error("a writer appended to a closed file")
	}
	if st, err := scanFile(j.path); err != nil || st.Records != 4 {
		t.Errorf("the file replays %+v, %v; want the 4 accepted records", st, err)
	}
}

// scanFile walks the journal file at path afresh, through no handle: what
// is on disk, whatever any open journal believes.
func scanFile(path string) (*JournalState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //nolint:errcheck // read-only handle
	st := &JournalState{}
	return st, walkFrames(f, st)
}
