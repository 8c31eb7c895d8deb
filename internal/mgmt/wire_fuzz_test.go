package mgmt

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"reflect"
	"testing"

	"sdme/internal/enforce"
	"sdme/internal/netaddr"
	"sdme/internal/policy"
	"sdme/internal/topo"
)

// frame serializes one message the way the channel does, for seeding.
func frame(f *testing.F, typ string, v interface{}) []byte {
	var buf bytes.Buffer
	if _, err := writeMsg(&buf, typ, v); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// seedConfig mirrors the configs the reconnect tests push: policies,
// candidate sets and LB weights on a labeled node.
func seedConfig() enforce.Config {
	d := policy.NewDescriptor()
	d.DstPort = netaddr.SinglePort(80)
	return enforce.Config{
		Policies: []*policy.Policy{
			{ID: 1, Prio: 1, Desc: d, Actions: policy.ActionList{policy.FuncFW, policy.FuncIDS}},
		},
		Candidates: map[policy.FuncType][]topo.NodeID{
			policy.FuncFW:  {10, 11},
			policy.FuncIDS: {12},
		},
		Weights: map[enforce.WeightKey][]float64{
			{PolicyID: 1, Func: policy.FuncFW}: {0.25, 0.75},
		},
		Strategy:       enforce.LoadBalanced,
		HashSeed:       7,
		LabelSwitching: true,
		FlowTTL:        1000,
	}
}

// FuzzWire hardens the management channel's framing and envelope codec:
// arbitrary bytes must never panic the reader, and any frame that parses
// must survive a write/read round trip with its type tag and payload
// semantically intact (JSON compaction may reformat the raw bytes).
func FuzzWire(f *testing.F) {
	f.Add(frame(f, TypeHello, Hello{NodeID: 3, Epoch: 2}))
	f.Add(frame(f, TypeHelloAck, Hello{NodeID: 3}))
	f.Add(frame(f, TypeConfig, ConfigToDTO(9, seedConfig())))
	f.Add(frame(f, TypeConfig, WeightsToDTO(10, seedConfig().Weights)))
	f.Add(frame(f, TypeAck, Ack{Seq: 9, Epoch: 4, Error: "refused: stale epoch"}))
	f.Add(frame(f, TypeMeasure, Measure{NodeID: 3, Rows: []MeasureRow{
		{PolicyID: 1, SrcSubnet: 1, DstSubnet: 2, Packets: 41},
	}}))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 'x'})
	huge := make([]byte, 8)
	binary.BigEndian.PutUint32(huge, maxFrame+1)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := readMsg(bytes.NewReader(data))
		if err != nil {
			return
		}
		raw := env.Data
		if raw == nil {
			// A missing "data" field re-marshals as JSON null.
			raw = json.RawMessage("null")
		}
		var buf bytes.Buffer
		if _, err := writeMsg(&buf, env.T, raw); err != nil {
			t.Fatalf("re-frame of parsed envelope failed: %v", err)
		}
		back, err := readMsg(&buf)
		if err != nil {
			t.Fatalf("re-read of re-framed envelope failed: %v", err)
		}
		if back.T != env.T {
			t.Fatalf("type tag changed across round trip: %q vs %q", back.T, env.T)
		}
		var want, got interface{}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatalf("parsed envelope carries invalid data JSON: %v", err)
		}
		if err := json.Unmarshal(back.Data, &got); err != nil {
			t.Fatalf("round-tripped envelope carries invalid data JSON: %v", err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("data changed across round trip:\n%s\nvs\n%s", raw, back.Data)
		}
	})
}

// FuzzConfigDTO checks that the config codec is a fixed point: any
// ConfigDTO that decodes from JSON maps to an enforce.Config whose wire
// form decodes back to the identical Config. (The first hop may
// canonicalize — e.g. prefixes drop host bits — but canonical forms
// must be stable.)
func FuzzConfigDTO(f *testing.F) {
	for _, dto := range []ConfigDTO{
		ConfigToDTO(1, seedConfig()),
		WeightsToDTO(2, seedConfig().Weights),
		{Seq: 3, Policies: []PolicyDTO{{ID: 1, SrcAddr: 0x0a000001, SrcBits: 8, Actions: []int{1, 2}}}},
	} {
		b, err := json.Marshal(dto)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var dto ConfigDTO
		if err := json.Unmarshal(data, &dto); err != nil {
			return
		}
		cfg := ConfigFromDTO(dto)
		cfg2 := ConfigFromDTO(ConfigToDTO(dto.Seq, cfg))
		if !reflect.DeepEqual(cfg, cfg2) {
			t.Fatalf("config not stable across round trip:\n%#v\nvs\n%#v", cfg, cfg2)
		}
	})
}
