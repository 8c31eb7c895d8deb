package mgmt

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"sdme/internal/enforce"
	"sdme/internal/flowtable"
	"sdme/internal/netaddr"
	"sdme/internal/policy"
	"sdme/internal/topo"
)

// seedDelta mirrors the deltas the incremental pipeline emits: a policy
// upsert, a removal, a candidate-list change, and weight edits.
func seedDelta() enforce.ConfigDelta {
	base := seedConfig()
	return enforce.ConfigDelta{
		Upserts:        []*policy.Policy{base.Policies[0]},
		Removes:        []int{2},
		SetCandidates:  map[policy.FuncType][]topo.NodeID{policy.FuncIDS: {12, 13}},
		DropCandidates: []policy.FuncType{policy.FuncWP},
		SetWeights: map[enforce.WeightKey][]float64{
			{PolicyID: 1, Func: policy.FuncFW}: {0.5, 0.5},
		},
		DropWeights: []enforce.WeightKey{{PolicyID: 2, Func: policy.FuncIDS}},
	}
}

// fuzzDeployment builds one small deployment the apply checks create
// fresh nodes from (nodes per fuzz input: applying mutates node state and
// fuzz workers run in parallel), with a proxy and a FW+IDS middlebox —
// the node kind that holds label entries too.
func fuzzDeployment(f *testing.F) (dep *enforce.Deployment, proxy, mb topo.NodeID) {
	f.Helper()
	rng := rand.New(rand.NewSource(1))
	g := topo.Campus(topo.CampusConfig{Gateways: 1, CoreRouters: 2, EdgeRouters: 1, WithProxies: true}, rng)
	dep, err := enforce.NewDeployment(g)
	if err != nil {
		f.Fatal(err)
	}
	mb = dep.AddMiddlebox(g.NodesOfKind(topo.KindCoreRouter)[0], "fw-ids", policy.FuncFW, policy.FuncIDS)
	return dep, dep.ProxyNodes[0], mb
}

// seedSoftState gives a node the same flow and label entries on every
// call: per policy ID 1–3 (installed or not), a flow entry pinned to a
// candidate and a label entry chained on to one, plus a null flow entry.
func seedSoftState(n *enforce.Node) (flows []netaddr.FiveTuple, labels []flowtable.LabelKey) {
	for id := 1; id <= 3; id++ {
		ft := netaddr.FiveTuple{Src: topo.HostAddr(1, id), Dst: topo.HostAddr(2, 1), SrcPort: 40000, DstPort: 80, Proto: netaddr.ProtoTCP}
		e := n.FlowTable().Insert(ft, id, policy.ActionList{policy.FuncFW, policy.FuncIDS}, 0)
		e.Pin(topo.NodeID(9 + id))
		flows = append(flows, ft)
		k := flowtable.LabelKey{Src: ft.Src, Label: uint16(id)}
		n.LabelTable().Insert(k, id, policy.ActionList{policy.FuncIDS}, ft, 0).Pin(topo.NodeID(9 + id))
		labels = append(labels, k)
	}
	null := netaddr.FiveTuple{Src: topo.HostAddr(1, 9), Dst: topo.HostAddr(2, 1), SrcPort: 40000, DstPort: 9, Proto: netaddr.ProtoTCP}
	n.FlowTable().InsertNull(null, 0)
	return append(flows, null), labels
}

// FuzzConfigDelta hardens the delta wire path end to end: any DeltaDTO
// that decodes from JSON must (1) have a stable canonical wire form —
// DeltaToDTO∘DeltaFromDTO is a fixed point — (2) never panic the apply
// path: a validated delta applied to a pure Config copy and to a live Node
// may be refused with an error, but must not crash either — and (3) mean
// the same as its merged configuration: a node after ApplyDelta and a twin
// after Install(d.ApplyToConfig(base)), seeded with the same soft state,
// end with equal configurations and equal table contents.
func FuzzConfigDelta(f *testing.F) {
	for _, dto := range []DeltaDTO{
		DeltaToDTO(1, seedDelta()),
		{Seq: 2, BaseEpoch: 3, Removes: []int{1, 2, 3}},
		{Seq: 3, Upserts: []PolicyDTO{{ID: 1, Prio: 2, SrcAddr: 0x0a000001, SrcBits: 8, Actions: []int{1}}}},
		{Seq: 4, SetWeights: []WeightDTO{{PolicyID: 1, Func: 1, Weights: []float64{1}}},
			DropWeights: []WeightKeyDTO{{PolicyID: 9, Func: 2}}},
	} {
		b, err := json.Marshal(dto)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	dep, proxyID, mbID := fuzzDeployment(f)
	base := seedConfig()

	f.Fuzz(func(t *testing.T, data []byte) {
		var dto DeltaDTO
		if err := json.Unmarshal(data, &dto); err != nil {
			return
		}
		// Codec fixed point: the canonical form re-encodes to itself.
		d := DeltaFromDTO(dto)
		canon := DeltaToDTO(dto.Seq, d)
		again := DeltaToDTO(dto.Seq, DeltaFromDTO(canon))
		if !reflect.DeepEqual(canon, again) {
			t.Fatalf("delta not stable across round trip:\n%#v\nvs\n%#v", canon, again)
		}

		// Apply never panics. The wire trust boundary guarantees Validate
		// ran before ApplyDelta, so only validated deltas reach a node.
		if dto.Validate() != nil {
			return
		}
		dv := DeltaFromDTO(dto)
		merged := dv.ApplyToConfig(base)
		n := enforce.NewProxy(dep, proxyID)
		if err := n.Install(base); err != nil {
			t.Fatalf("install seed config: %v", err)
		}
		_ = n.ApplyDelta(dv)

		// One rule: the delta and its merged configuration do the same.
		var nodes [2]*enforce.Node
		var errs [2]error
		var flows []netaddr.FiveTuple
		var labels []flowtable.LabelKey
		for i := range nodes {
			mb, err := enforce.NewMiddlebox(dep, mbID)
			if err != nil {
				t.Fatal(err)
			}
			if err := mb.Install(base); err != nil {
				t.Fatalf("install seed config: %v", err)
			}
			flows, labels = seedSoftState(mb)
			nodes[i] = mb
		}
		errs[0] = nodes[0].ApplyDelta(dv)
		errs[1] = nodes[1].Install(merged)
		if (errs[0] == nil) != (errs[1] == nil) {
			t.Fatalf("ApplyDelta: %v, Install of the merged config: %v", errs[0], errs[1])
		}
		if !reflect.DeepEqual(nodes[0].Config(), nodes[1].Config()) {
			t.Fatalf("configs differ:\n%#v\nvs\n%#v", nodes[0].Config(), nodes[1].Config())
		}
		a, b := nodes[0], nodes[1]
		if a.FlowTable().Len() != b.FlowTable().Len() || a.LabelTable().Len() != b.LabelTable().Len() {
			t.Fatalf("table sizes differ: flows %d vs %d, labels %d vs %d",
				a.FlowTable().Len(), b.FlowTable().Len(), a.LabelTable().Len(), b.LabelTable().Len())
		}
		for _, ft := range flows {
			ea, okA := a.FlowTable().Lookup(ft, 0)
			eb, okB := b.FlowTable().Lookup(ft, 0)
			if okA != okB || okA && (ea.PolicyID != eb.PolicyID || ea.Null != eb.Null || ea.NextHop != eb.NextHop) {
				t.Fatalf("flow %v: %+v (%v) vs %+v (%v)", ft, ea, okA, eb, okB)
			}
		}
		for _, k := range labels {
			ea, okA := a.LabelTable().Lookup(k, 0)
			eb, okB := b.LabelTable().Lookup(k, 0)
			if okA != okB || okA && (ea.PolicyID != eb.PolicyID || ea.NextHop != eb.NextHop) {
				t.Fatalf("label %v: %+v (%v) vs %+v (%v)", k, ea, okA, eb, okB)
			}
		}
	})
}
