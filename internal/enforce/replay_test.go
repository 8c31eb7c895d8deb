package enforce_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/netaddr"
	"sdme/internal/packet"
	"sdme/internal/policy"
	"sdme/internal/topo"
)

// replayDigests are the SHA-256 digests of the seeded replay below: every
// packet's hop sequence and every node's counters at the end. They pin the
// dataplane's selections, pins, purges and counts, packet by packet, to
// one recorded behaviour; a change that alters any of them fails here.
var replayDigests = map[string]string{
	"tunnel": "fb9f5456f8e9c4a4f7d17427a543ecac81b46ac4a0297ad832d90b095beab3b8",
	"label":  "dfeb7d6799ca39b82587b7bdd7bba38c092ec5be4082ba44c14dfdce124497f4",
}

// replayPolicies gives the test campus four kinds of flow: two chains of
// two functions, a one-function chain, and traffic no policy matches.
func replayPolicies(tbl *policy.Table) {
	for _, r := range []struct {
		port uint16
		acts policy.ActionList
	}{
		{80, policy.ActionList{policy.FuncFW, policy.FuncIDS}},
		{443, policy.ActionList{policy.FuncIDS, policy.FuncFW}},
		{22, policy.ActionList{policy.FuncFW}},
	} {
		d := policy.NewDescriptor()
		d.DstPort = netaddr.SinglePort(r.port)
		tbl.Add(d, r.acts)
	}
}

// TestSeededReplayDigest replays a seeded schedule of packets over a pool
// of flows on the test campus under the LB strategy, in tunnel and label
// mode. Between packets it reinstalls every node with fresh weights (and
// now and then the unchanged configuration), takes one FW or IDS box down
// on every node (with InvalidateProvider) and brings it back, and sweeps
// the soft state. While every provider is up, each delivered packet the
// proxy tunneled (all of them in tunnel mode) must visit exactly the
// middleboxes TraceFlow names; the digest of all hop sequences and
// counters must equal the recorded one.
func TestSeededReplayDigest(t *testing.T) {
	for _, mode := range []string{"tunnel", "label"} {
		t.Run(mode, func(t *testing.T) {
			if got := replay(t, mode == "label"); got != replayDigests[mode] {
				t.Errorf("digest %s, want %s", got, replayDigests[mode])
			}
		})
	}
}

func replay(t *testing.T, labels bool) string {
	const (
		packets = 6000
		tick    = 10
	)
	tb := newTestbed(t, controller.Options{
		Strategy: enforce.LoadBalanced, LabelSwitching: labels,
		FlowTTL: 3000, LabelTTL: 5000, HashSeed: 35,
	}, replayPolicies)
	f := newFabric(t, tb.nodes)
	ids := make([]topo.NodeID, 0, len(tb.nodes))
	for id := range tb.nodes {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	boxes := append(slices.Clone(tb.dep.Providers(policy.FuncFW)), tb.dep.Providers(policy.FuncIDS)...)

	rng := rand.New(rand.NewSource(35))
	ports := []uint16{80, 443, 22, 53}
	flows := make([]netaddr.FiveTuple, 96)
	for i := range flows {
		src := 1 + rng.Intn(3)
		dst := 1 + (src+rng.Intn(2))%3
		flows[i] = netaddr.FiveTuple{
			Src: topo.HostAddr(src, 1+rng.Intn(4)), Dst: topo.HostAddr(dst, 1+rng.Intn(4)),
			SrcPort: uint16(20000 + i), DstPort: ports[rng.Intn(len(ports))], Proto: netaddr.ProtoTCP,
		}
	}

	reinstall := func(fresh bool) {
		for _, id := range ids {
			n := tb.nodes[id]
			cfg := n.Config()
			if fresh {
				funcs := make([]policy.FuncType, 0, len(cfg.Candidates))
				for fn := range cfg.Candidates {
					funcs = append(funcs, fn)
				}
				slices.Sort(funcs)
				w := make(map[enforce.WeightKey][]float64)
				for _, p := range cfg.Policies {
					for _, fn := range funcs {
						vec := func() []float64 {
							v := make([]float64, len(cfg.Candidates[fn]))
							for i := range v {
								v[i] = rng.Float64()
							}
							return v
						}
						w[enforce.WeightKey{PolicyID: p.ID, Func: fn}] = vec()
						if rng.Intn(3) == 0 { // an Eq. (1) vector for one subnet pair
							w[enforce.WeightKey{PolicyID: p.ID, Func: fn, SrcSubnet: 1 + rng.Intn(3), DstSubnet: 1 + rng.Intn(3)}] = vec()
						}
					}
				}
				cfg.Weights = w
			}
			if err := n.Install(cfg); err != nil {
				t.Fatal(err)
			}
		}
	}

	h := sha256.New()
	down := topo.InvalidNode
	for step := 0; step < packets; step++ {
		now := int64(step * tick)
		f.now = now
		switch {
		case step%600 == 300:
			reinstall(step%1800 != 300)
		case step%600 == 450:
			up := down != topo.InvalidNode
			if !up {
				down = boxes[rng.Intn(len(boxes))]
			}
			for _, id := range ids {
				tb.nodes[id].SetProviderDown(down, !up)
				if !up {
					tb.nodes[id].InvalidateProvider(down)
				}
			}
			if up {
				down = topo.InvalidNode
			}
		case step%200 == 0:
			for _, id := range ids {
				tb.nodes[id].Sweep(now)
			}
		}

		ft := flows[rng.Intn(len(flows))]
		key := ft
		key.Dst = 0
		before, delivered := len(f.visits[key]), len(f.delivered)
		proxy := tb.proxy(t, tb.dep.SubnetIndexOf(ft.Src))
		tunneled := proxy.Counters.TunnelTx
		err := proxy.HandleOutbound(packet.New(ft, 64), now, f)
		hops := f.visits[key][before:]
		arrived := len(f.delivered) > delivered
		fmt.Fprintf(h, "%d %v %v %t\n", step, hops, err, arrived)

		// A label-switched packet follows the label entries it finds, and a
		// middlebox off its flow's current path may still hold a stale entry
		// under the same ⟨src|label⟩ (the label was freed at the proxy and
		// given to another flow of the source host); only the digest covers
		// those packets.
		if down != topo.InvalidNode || !arrived || proxy.Counters.TunnelTx == tunneled {
			continue
		}
		tr, err := enforce.TraceFlow(tb.nodes, tb.dep, tb.ap, ft)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]topo.NodeID, len(tr.Hops))
		for i, hop := range tr.Hops {
			want[i] = hop.Node
		}
		if !slices.Equal(hops, want) {
			t.Fatalf("step %d, flow %v: visited %v, TraceFlow %v", step, ft, hops, want)
		}
	}
	for _, id := range ids {
		fmt.Fprintf(h, "%d %+v\n", id, tb.nodes[id].CountersSnapshot())
	}
	return hex.EncodeToString(h.Sum(nil))
}
