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
	if got := cands[pickWeightedIdx(cands[:1], nil, 12345)]; got != 10 {
		t.Errorf("single candidate pick = %v", got)
	}
	// Nil weights fall back to uniform by hash.
	if got := cands[pickWeightedIdx(cands, nil, 4)]; got != cands[4%3] {
		t.Errorf("uniform pick = %v", got)
	}
	// All-zero weights likewise.
	if got := cands[pickWeightedIdx(cands, []float64{0, 0, 0}, 5)]; got != cands[5%3] {
		t.Errorf("zero-weight pick = %v", got)
	}
	// Mismatched weight length falls back to uniform.
	if got := cands[pickWeightedIdx(cands, []float64{1}, 7)]; got != cands[7%3] {
		t.Errorf("mismatched-weight pick = %v", got)
	}
	// A weight vector concentrated on one candidate always picks it.
	for h := uint64(0); h < 100; h++ {
		if got := cands[pickWeightedIdx(cands, []float64{0, 1, 0}, h*2654435761)]; got != 20 {
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
		counts[cands[pickWeightedIdx(cands, weights, ft.Hash(42))]]++
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
	first := cands[pickWeightedIdx(cands, weights, ft.Hash(7))]
	for i := 0; i < 50; i++ {
		if got := cands[pickWeightedIdx(cands, weights, ft.Hash(7))]; got != first {
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

// ruleBed is a proxy with one policy per priority 0..3, each matching one
// destination port (rule i: port 1000+i), and one cached flow per policy
// plus one null flow (port 999, no rule).
func ruleBed(t *testing.T) (*Node, []netaddr.FiveTuple, netaddr.FiveTuple) {
	t.Helper()
	g := topo.Campus(topo.CampusConfig{Gateways: 1, CoreRouters: 2, EdgeRouters: 1, WithProxies: true}, rand.New(rand.NewSource(7)))
	dep, err := NewDeployment(g)
	if err != nil {
		t.Fatal(err)
	}
	fw := dep.AddMiddlebox(g.NodesOfKind(topo.KindCoreRouter)[0], "fw1", policy.FuncFW)
	proxyID, _ := dep.ProxyFor(1)
	var rules []*policy.Policy
	var flows []netaddr.FiveTuple
	flowTo := func(port int) netaddr.FiveTuple {
		return netaddr.FiveTuple{Src: topo.HostAddr(1, 1), Dst: topo.HostAddr(1, 9), SrcPort: 30000, DstPort: uint16(port), Proto: netaddr.ProtoTCP}
	}
	for i := 0; i < 4; i++ {
		p := &policy.Policy{ID: i + 1, Prio: i, Desc: policy.NewDescriptor(), Actions: policy.ActionList{policy.FuncFW}}
		p.Desc.DstPort = netaddr.SinglePort(uint16(1000 + i))
		rules = append(rules, p)
		flows = append(flows, flowTo(1000+i))
	}
	node := NewProxy(dep, proxyID)
	if err := node.Install(Config{
		Policies:   rules,
		Candidates: map[policy.FuncType][]topo.NodeID{policy.FuncFW: {fw}},
		Strategy:   LoadBalanced,
	}); err != nil {
		t.Fatal(err)
	}
	null := flowTo(999)
	for _, ft := range append(flows, null) {
		if err := node.HandleOutbound(packet.New(ft, 10), 0, dropForwarder{}); err != nil {
			t.Fatal(err)
		}
	}
	if node.flows.Len() != 5 {
		t.Fatalf("seeded %d flow entries, want 5", node.flows.Len())
	}
	return node, flows, null
}

// cached reports which of the flows still have a flow-table entry.
func cached(n *Node, flows ...netaddr.FiveTuple) []bool {
	out := make([]bool, len(flows))
	for i, ft := range flows {
		_, out[i] = n.flows.Lookup(ft, 0)
	}
	return out
}

func TestInstallWeightsOnlyKeepsEveryEntry(t *testing.T) {
	node, flows, null := ruleBed(t)
	classifier, table := node.classifier, node.flows
	cfg := node.Config()
	cfg.Weights = map[WeightKey][]float64{{PolicyID: 2, Func: policy.FuncFW}: {1}}
	if err := node.Install(cfg); err != nil {
		t.Fatal(err)
	}
	if node.flows != table || node.classifier != classifier {
		t.Error("a weights-only install rebuilt the flow table or the classifier")
	}
	for i, ok := range cached(node, append(flows, null)...) {
		if !ok {
			t.Errorf("flow %d purged by a weights-only install", i)
		}
	}
	if node.Counters.Invalidated != 0 {
		t.Errorf("Invalidated = %d, want 0", node.Counters.Invalidated)
	}
}

func TestInstallChangedPolicyPurgesItsOwnAndShadowed(t *testing.T) {
	node, flows, null := ruleBed(t)
	// Rule prio 1 changes its action list: its own entry is stale, and
	// entries of rules after it in match order (prio 2, 3) and the null
	// entry may now be shadowed. The entry of prio 0 survives.
	cfg := node.Config()
	cfg.Policies = append([]*policy.Policy(nil), cfg.Policies...)
	changed := *cfg.Policies[1]
	changed.Actions = nil
	cfg.Policies[1] = &changed
	if err := node.Install(cfg); err != nil {
		t.Fatal(err)
	}
	got := cached(node, append(flows, null)...)
	want := []bool{true, false, false, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("flow %d cached = %v, want %v", i, got[i], want[i])
		}
	}
	if node.Counters.Invalidated != 4 {
		t.Errorf("Invalidated = %d, want 4", node.Counters.Invalidated)
	}
	if p := node.classifier.Match(flows[1]); p != &changed {
		t.Errorf("classifier matched %v, want the changed rule", p)
	}
}

func TestInstallSettingOrShardChangeRebuildsTables(t *testing.T) {
	node, _, _ := ruleBed(t)
	table := node.flows
	cfg := node.Config()
	cfg.FlowTTL = 500
	if err := node.Install(cfg); err != nil {
		t.Fatal(err)
	}
	if node.flows == table || node.flows.Len() != 0 {
		t.Error("a TTL change kept the old flow table")
	}

	node, _, _ = ruleBed(t)
	node.SetShardTuning(4, 4)
	if err := node.Install(node.Config()); err != nil {
		t.Fatal(err)
	}
	if node.flows.Shards() != 4 || node.flows.Len() != 0 {
		t.Errorf("after SetShardTuning(4, 4) + Install: %d shards, %d entries", node.flows.Shards(), node.flows.Len())
	}
	table = node.flows
	if err := node.Install(node.Config()); err != nil {
		t.Fatal(err)
	}
	if node.flows != table {
		t.Error("a second install with unchanged tuning rebuilt the tables")
	}
}
