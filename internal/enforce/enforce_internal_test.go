package enforce

import (
	"math/rand"
	"testing"

	"sdme/internal/netaddr"
	"sdme/internal/packet"
	"sdme/internal/policy"
	"sdme/internal/topo"
)

func TestPickWeighted(t *testing.T) {
	cands := []topo.NodeID{10, 20, 30}

	// Single candidate short-circuits.
	if got := pickWeighted(cands[:1], nil, 12345); got != 10 {
		t.Errorf("single candidate pick = %v", got)
	}
	// Nil weights fall back to uniform by hash.
	if got := pickWeighted(cands, nil, 4); got != cands[4%3] {
		t.Errorf("uniform pick = %v", got)
	}
	// All-zero weights likewise.
	if got := pickWeighted(cands, []float64{0, 0, 0}, 5); got != cands[5%3] {
		t.Errorf("zero-weight pick = %v", got)
	}
	// Mismatched weight length falls back to uniform.
	if got := pickWeighted(cands, []float64{1}, 7); got != cands[7%3] {
		t.Errorf("mismatched-weight pick = %v", got)
	}
	// A weight vector concentrated on one candidate always picks it.
	for h := uint64(0); h < 100; h++ {
		if got := pickWeighted(cands, []float64{0, 1, 0}, h*2654435761); got != 20 {
			t.Fatalf("concentrated pick = %v for hash %d", got, h)
		}
	}
}

func TestPickWeightedProportions(t *testing.T) {
	// Over many random flows, picks approximate the weight proportions —
	// the paper's hash-proportional selection (§III-C).
	cands := []topo.NodeID{1, 2, 3}
	weights := []float64{1, 2, 1}
	rng := rand.New(rand.NewSource(17))
	counts := map[topo.NodeID]int{}
	const n = 40000
	for i := 0; i < n; i++ {
		ft := netaddr.FiveTuple{
			Src: netaddr.Addr(rng.Uint32()), Dst: netaddr.Addr(rng.Uint32()),
			SrcPort: uint16(rng.Intn(65536)), DstPort: 80, Proto: 6,
		}
		counts[pickWeighted(cands, weights, ft.Hash(42))]++
	}
	if got := counts[2]; got < n/2-n/25 || got > n/2+n/25 {
		t.Errorf("middle candidate got %d of %d, want ≈ %d", got, n, n/2)
	}
	if got := counts[1]; got < n/4-n/25 || got > n/4+n/25 {
		t.Errorf("first candidate got %d of %d, want ≈ %d", got, n, n/4)
	}
}

func TestPickWeightedDeterministicPerFlow(t *testing.T) {
	cands := []topo.NodeID{1, 2, 3, 4}
	weights := []float64{0.3, 0.3, 0.2, 0.2}
	ft := netaddr.FiveTuple{Src: 9, Dst: 8, SrcPort: 7, DstPort: 80, Proto: 6}
	first := pickWeighted(cands, weights, ft.Hash(7))
	for i := 0; i < 50; i++ {
		if got := pickWeighted(cands, weights, ft.Hash(7)); got != first {
			t.Fatal("same flow must always pick the same candidate")
		}
	}
}

func TestStrategyString(t *testing.T) {
	if HotPotato.String() != "HP" || Random.String() != "Rand" || LoadBalanced.String() != "LB" {
		t.Error("strategy strings wrong")
	}
	if Strategy(9).String() == "" {
		t.Error("unknown strategy should render")
	}
}

type dropForwarder struct{}

func (dropForwarder) Send(*Node, *packet.Packet)                         {}
func (dropForwarder) SendControl(*Node, netaddr.Addr, netaddr.FiveTuple) {}

// TestApplyDeltaCrossesClassifierThreshold grows a proxy's table across
// the size where policy.NewClassifier switches from the scan to the trie,
// and shrinks it back, by deltas. After each delta every probe must
// classify as on a node freshly installed with the resulting config, the
// classifier must be the one a fresh install builds, and the flow entries
// of policies the delta does not touch must survive.
func TestApplyDeltaCrossesClassifierThreshold(t *testing.T) {
	rule := func(i int) *policy.Policy {
		p := &policy.Policy{ID: i, Prio: i, Desc: policy.NewDescriptor(), Actions: policy.ActionList{policy.FuncFW}}
		p.Desc.DstPort = netaddr.SinglePort(uint16(1000 + i))
		if i%5 == 4 {
			p.Actions = nil // permit
		}
		return p
	}
	rules := func(lo, hi int) []*policy.Policy {
		var out []*policy.Policy
		for i := lo; i < hi; i++ {
			out = append(out, rule(i))
		}
		return out
	}
	isTrie := func(c policy.Classifier) bool { _, ok := c.(*policy.TrieClassifier); return ok }
	threshold := 1
	for !isTrie(policy.NewClassifier(rules(0, threshold))) {
		threshold++
	}

	g := topo.Campus(topo.CampusConfig{Gateways: 1, CoreRouters: 2, EdgeRouters: 1, WithProxies: true}, rand.New(rand.NewSource(7)))
	dep, err := NewDeployment(g)
	if err != nil {
		t.Fatal(err)
	}
	fw := dep.AddMiddlebox(g.NodesOfKind(topo.KindCoreRouter)[0], "fw1", policy.FuncFW)
	proxyID, _ := dep.ProxyFor(1)
	small, large := threshold-2, threshold+2
	base := Config{
		Policies:   rules(0, small),
		Candidates: map[policy.FuncType][]topo.NodeID{policy.FuncFW: {fw}},
		Strategy:   HotPotato,
	}
	node := NewProxy(dep, proxyID)
	if err := node.Install(base); err != nil {
		t.Fatal(err)
	}

	flowTo := func(port int) netaddr.FiveTuple {
		return netaddr.FiveTuple{Src: topo.HostAddr(1, 1), Dst: topo.HostAddr(1, 9), SrcPort: 30000, DstPort: uint16(port), Proto: netaddr.ProtoTCP}
	}
	// Flows of the first rules (enforced and permit), cached before any delta.
	cached := []netaddr.FiveTuple{flowTo(1000), flowTo(1001), flowTo(1004)}
	for _, ft := range cached {
		if err := node.HandleOutbound(packet.New(ft, 10), 0, dropForwarder{}); err != nil {
			t.Fatal(err)
		}
	}

	check := func(step string, wantTrie bool) {
		t.Helper()
		fresh := NewProxy(dep, proxyID)
		if err := fresh.Install(node.Config()); err != nil {
			t.Fatal(err)
		}
		if isTrie(node.classifier) != wantTrie || isTrie(fresh.classifier) != wantTrie {
			t.Fatalf("%s: %d rules classified by %T (fresh install: %T)", step, len(node.Config().Policies), node.classifier, fresh.classifier)
		}
		for port := 999; port <= 1000+large; port++ { // one probe per rule ever installed, a miss at each end
			if got, want := node.classifier.Match(flowTo(port)), fresh.classifier.Match(flowTo(port)); got != want {
				t.Errorf("%s: port %d classified as %v, fresh install says %v", step, port, got, want)
			}
		}
		for _, ft := range cached {
			if _, ok := node.flows.Lookup(ft, 0); !ok {
				t.Errorf("%s: flow entry of untouched %v was purged", step, node.classifier.Match(ft))
			}
		}
	}
	check("installed", false)
	if err := node.ApplyDelta(ConfigDelta{Upserts: rules(small, large)}); err != nil {
		t.Fatal(err)
	}
	check("grown", true)
	var removes []int
	for i := small; i < large; i++ {
		removes = append(removes, i)
	}
	if err := node.ApplyDelta(ConfigDelta{Removes: removes}); err != nil {
		t.Fatal(err)
	}
	check("shrunk", false)
}
