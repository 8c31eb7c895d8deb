package mgmt

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"testing"

	"sdme/internal/enforce"
	"sdme/internal/policy"
	"sdme/internal/topo"
)

// wireMessages is one value of every message type the channel carries.
func wireMessages() []struct {
	typ string
	v   interface{}
} {
	delta := DeltaToDTO(4, enforce.ConfigDelta{
		Upserts:        seedConfig().Policies,
		Removes:        []int{3},
		SetCandidates:  map[policy.FuncType][]topo.NodeID{policy.FuncFW: {10, 11}},
		DropCandidates: []policy.FuncType{policy.FuncTM},
		SetWeights:     seedConfig().Weights,
	})
	delta.Epoch, delta.BaseEpoch = 5, 4
	return []struct {
		typ string
		v   interface{}
	}{
		{TypeHello, Hello{NodeID: 3, Epoch: 2}},
		{TypeHelloAck, Ack{}},
		{TypeConfig, ConfigToDTO(9, seedConfig())},
		{TypeAck, Ack{Seq: 9, Epoch: 4, Error: "refused: \"stale\" epoch\n", Prepared: true, Term: 2}},
		{TypeMeasure, Measure{NodeID: 3, Rows: []MeasureRow{{PolicyID: 1, SrcSubnet: 1, DstSubnet: 2, Packets: 41}}}},
		{TypePrepare, ConfigToDTO(10, seedConfig())},
		{TypeCommit, Commit{Seq: 11, Epoch: 5, Term: 2}},
		{TypeAbort, Commit{Seq: 12, Epoch: 5}},
		{TypePrepareDelta, delta},
		{TypeLeaseRequest, LeaseRequest{Candidate: 1, Term: 3, JournalBytes: 4096, LastTerm: 2}},
		{TypeLeaseGrant, LeaseGrant{Voter: 2, Term: 3, Granted: true}},
		{TypeHeartbeat, Heartbeat{Leader: 1, Term: 3, JournalBytes: 4096, JournalCRC: 0xdeadbeef, Reply: true}},
		{TypeNotLeader, NotLeader{LeaderAddr: "127.0.0.1:7000 <&>", Term: 3}},
		{TypeJournalFrame, JournalFrame{Leader: 1, Term: 3, Offset: 128, PrefixCRC: 7, Frames: []byte{0, 1, 2, 0xff}}},
		{TypeJournalFetch, JournalFetch{Standby: 2, From: 128}},
		{TypeJournalAck, JournalAck{Standby: 2, Term: 3, Bytes: 4096}},
	}
}

// marshalTwice is the envelope encoding EncodeEnvelope must reproduce.
func marshalTwice(typ string, v interface{}) ([]byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return json.Marshal(Envelope{T: typ, Data: data})
}

// EncodeEnvelope appends its envelope by hand; the journal replays bytes
// written by the old encoder, so the two must agree byte for byte.
func TestEncodeEnvelopeMatchesMarshal(t *testing.T) {
	for _, m := range wireMessages() {
		got, err := EncodeEnvelope(m.typ, m.v)
		if err != nil {
			t.Fatal(err)
		}
		want, err := marshalTwice(m.typ, m.v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s:\n got %s\nwant %s", m.typ, got, want)
		}
	}
}

// FuzzEncodeEnvelope: any tag (escapes, HTML characters, invalid UTF-8)
// and any payload, a struct or raw JSON, encodes as the double marshal.
func FuzzEncodeEnvelope(f *testing.F) {
	f.Add(TypePrepareDelta, "x", int64(1), []byte(`{"a": [1, 2]}`))
	f.Add("t\"<&>\u2028\xff", "\x00\\", int64(-1), []byte(" null "))
	f.Add("", "", int64(0), []byte(`"<\u0026>"`))
	f.Fuzz(func(t *testing.T, typ, s string, n int64, raw []byte) {
		vals := []interface{}{struct {
			S string `json:"s"`
			N int64  `json:"n"`
		}{s, n}}
		if json.Valid(raw) {
			vals = append(vals, json.RawMessage(raw))
		}
		for _, v := range vals {
			got, err := EncodeEnvelope(typ, v)
			if err != nil {
				t.Fatal(err)
			}
			want, err := marshalTwice(typ, v)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%q %T:\n got %s\nwant %s", typ, v, got, want)
			}
		}
	})
}

// countingWriter counts Write calls.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// writeMsg hands every frame, header included, to one Write and reports
// the envelope length (the frame less its header).
func TestWriteMsgOneWrite(t *testing.T) {
	for _, m := range wireMessages() {
		var w countingWriter
		n, err := writeMsg(&w, m.typ, m.v)
		if err != nil {
			t.Fatal(err)
		}
		env, _ := EncodeEnvelope(m.typ, m.v)
		if w.writes != 1 || n != len(env) || w.Len() != 4+len(env) {
			t.Errorf("%s: %d writes of %d bytes, returned %d, envelope %d bytes", m.typ, w.writes, w.Len(), n, len(env))
		}
	}
}

// splitReader delivers its data in two reads, split at cut.
type splitReader struct {
	data []byte
	cut  int
}

func (r *splitReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	end := len(r.data)
	if r.cut > 0 && r.cut < end {
		end = r.cut
	}
	n := copy(p, r.data[:end])
	r.data = r.data[n:]
	r.cut -= n
	return n, nil
}

// A frame reader decodes a short frame and one larger than its buffer
// however the stream is cut: at every byte, and not at all (two frames in
// one segment).
func TestFrameReaderSplits(t *testing.T) {
	type frame struct {
		typ string
		v   interface{}
	}
	frames := []frame{{TypeAck, Ack{Seq: 1, Epoch: 2}}, {TypeConfig, ConfigToDTO(3, bigConfig())}}
	var stream bytes.Buffer
	var want [][]byte
	for _, f := range frames {
		if _, err := writeMsg(&stream, f.typ, f.v); err != nil {
			t.Fatal(err)
		}
		data, _ := json.Marshal(f.v)
		want = append(want, data)
	}
	if n := stream.Len(); n < 2*readBufSize {
		t.Fatalf("stream is %d bytes; the large frame must exceed the %d-byte buffer", n, readBufSize)
	}
	for cut := 0; cut <= stream.Len(); cut++ {
		r := bufio.NewReaderSize(&splitReader{data: stream.Bytes(), cut: cut}, readBufSize)
		for i, f := range frames {
			env, err := readMsg(r)
			if err != nil {
				t.Fatalf("cut %d, frame %d: %v", cut, i, err)
			}
			if env.T != f.typ || !bytes.Equal(env.Data, want[i]) {
				t.Fatalf("cut %d, frame %d: got %s %.40s", cut, i, env.T, env.Data)
			}
		}
		if _, err := readMsg(r); !errors.Is(err, io.EOF) {
			t.Fatalf("cut %d: after the last frame got %v, want EOF", cut, err)
		}
	}
}

// bigConfig is seedConfig with enough policies to encode to a few KiB.
func bigConfig() enforce.Config {
	cfg := seedConfig()
	base := cfg.Policies[0]
	for i := 2; i <= 16; i++ {
		p := *base
		p.ID, p.Prio = i, i
		cfg.Policies = append(cfg.Policies, &p)
	}
	return cfg
}
