package policy

import (
	"fmt"
	"math/rand"
	"testing"

	"sdme/internal/netaddr"
)

func tuple(src, dst string, sp, dp uint16) netaddr.FiveTuple {
	return netaddr.FiveTuple{
		Src: netaddr.MustParseAddr(src), Dst: netaddr.MustParseAddr(dst),
		SrcPort: sp, DstPort: dp, Proto: netaddr.ProtoTCP,
	}
}

// paperTable builds the six example policies of the paper's Table I, with
// "subnet a" = 128.40.0.0/16.
func paperTable(t *testing.T) *Table {
	t.Helper()
	sub := netaddr.MustParsePrefix("128.40.0.0/16")
	tbl := NewTable()
	mk := func(src, dst netaddr.Prefix, sp, dp netaddr.PortRange, actions string) {
		d := NewDescriptor()
		d.Src, d.Dst, d.SrcPort, d.DstPort = src, dst, sp, dp
		a, err := ParseActions(actions)
		if err != nil {
			t.Fatal(err)
		}
		tbl.Add(d, a)
	}
	anyP, p80 := netaddr.AnyPort(), netaddr.SinglePort(80)
	star := netaddr.AnyPrefix()
	mk(sub, sub, anyP, p80, "permit")
	mk(sub, sub, p80, anyP, "permit")
	mk(star, sub, anyP, p80, "FW,IDS")
	mk(sub, star, p80, anyP, "IDS,FW")
	mk(sub, star, anyP, p80, "FW,IDS,WP")
	mk(star, sub, p80, anyP, "WP,IDS,FW")
	return tbl
}

func TestPaperTableI(t *testing.T) {
	tbl := paperTable(t)
	tests := []struct {
		name string
		ft   netaddr.FiveTuple
		want string // expected action list string, "" for no match
	}{
		{name: "internal web access permitted", ft: tuple("128.40.1.1", "128.40.2.2", 5000, 80), want: "permit"},
		{name: "internal web return permitted", ft: tuple("128.40.2.2", "128.40.1.1", 80, 5000), want: "permit"},
		{name: "external to internal server", ft: tuple("9.9.9.9", "128.40.2.2", 4000, 80), want: "FW -> IDS"},
		{name: "internal server reply outbound", ft: tuple("128.40.2.2", "9.9.9.9", 80, 4000), want: "IDS -> FW"},
		{name: "internal client to external web", ft: tuple("128.40.1.1", "8.8.8.8", 4000, 80), want: "FW -> IDS -> WP"},
		{name: "external web reply inbound", ft: tuple("8.8.8.8", "128.40.1.1", 80, 4000), want: "WP -> IDS -> FW"},
		{name: "unmatched traffic", ft: tuple("9.9.9.9", "8.8.8.8", 1, 2), want: ""},
	}
	for _, tt := range tests {
		p := tbl.Match(tt.ft)
		switch {
		case tt.want == "" && p != nil:
			t.Errorf("%s: matched %v, want none", tt.name, p)
		case tt.want != "" && p == nil:
			t.Errorf("%s: no match, want %q", tt.name, tt.want)
		case p != nil && p.Actions.String() != tt.want:
			t.Errorf("%s: actions = %q, want %q", tt.name, p.Actions, tt.want)
		}
	}
}

func TestFirstMatchWins(t *testing.T) {
	// The first two paper policies permit internal web traffic even
	// though later wildcard policies would also match it.
	tbl := paperTable(t)
	p := tbl.Match(tuple("128.40.1.1", "128.40.2.2", 1234, 80))
	if p == nil || !p.Actions.IsPermit() {
		t.Fatalf("internal web should hit the permit rule first, got %v", p)
	}
	if p.Prio != 0 {
		t.Errorf("Prio = %d, want 0", p.Prio)
	}
}

func TestActionListOps(t *testing.T) {
	a, err := ParseActions("FW, IDS, WP")
	if err != nil {
		t.Fatal(err)
	}
	if f, ok := a.First(); !ok || f != FuncFW {
		t.Errorf("First = %v/%v", f, ok)
	}
	if l, ok := a.Last(); !ok || l != FuncWP {
		t.Errorf("Last = %v/%v", l, ok)
	}
	if n, ok := a.Next(FuncFW); !ok || n != FuncIDS {
		t.Errorf("Next(FW) = %v/%v", n, ok)
	}
	if n, ok := a.Next(FuncIDS); !ok || n != FuncWP {
		t.Errorf("Next(IDS) = %v/%v", n, ok)
	}
	if _, ok := a.Next(FuncWP); ok {
		t.Error("Next(last) should be not-ok")
	}
	if _, ok := a.Next(FuncTM); ok {
		t.Error("Next(absent) should be not-ok")
	}
	if !a.Contains(FuncIDS) || a.Contains(FuncTM) {
		t.Error("Contains wrong")
	}
	if a.Index(FuncWP) != 2 || a.Index(FuncTM) != -1 {
		t.Error("Index wrong")
	}
	if !a.ContainsAny([]FuncType{FuncTM, FuncWP}) || a.ContainsAny([]FuncType{FuncTM}) {
		t.Error("ContainsAny wrong")
	}
	pairs := a.AdjacentPairs()
	if len(pairs) != 2 || pairs[0] != [2]FuncType{FuncFW, FuncIDS} || pairs[1] != [2]FuncType{FuncIDS, FuncWP} {
		t.Errorf("AdjacentPairs = %v", pairs)
	}
	if !a.Equal(ActionList{FuncFW, FuncIDS, FuncWP}) || a.Equal(ActionList{FuncFW}) {
		t.Error("Equal wrong")
	}
}

func TestPermitList(t *testing.T) {
	for _, s := range []string{"", "permit", "PERMIT", "  "} {
		a, err := ParseActions(s)
		if err != nil {
			t.Errorf("ParseActions(%q): %v", s, err)
			continue
		}
		if !a.IsPermit() {
			t.Errorf("ParseActions(%q) should be permit", s)
		}
		if _, ok := a.First(); ok {
			t.Error("permit list First should be not-ok")
		}
		if _, ok := a.Last(); ok {
			t.Error("permit list Last should be not-ok")
		}
		if a.String() != "permit" {
			t.Errorf("String = %q", a.String())
		}
		if a.AdjacentPairs() != nil {
			t.Error("permit list has no adjacent pairs")
		}
	}
	if _, err := ParseActions("FW,NOPE"); err == nil {
		t.Error("unknown function should fail")
	}
}

func TestParseFunc(t *testing.T) {
	for _, tt := range []struct {
		in   string
		want FuncType
	}{{"FW", FuncFW}, {"fw", FuncFW}, {"Ids", FuncIDS}, {"WP", FuncWP}, {"tm", FuncTM}} {
		got, err := ParseFunc(tt.in)
		if err != nil || got != tt.want {
			t.Errorf("ParseFunc(%q) = %v, %v", tt.in, got, err)
		}
	}
	if _, err := ParseFunc("bogus"); err == nil {
		t.Error("bogus function should fail")
	}
}

func TestDescriptorProtoMatch(t *testing.T) {
	d := NewDescriptor()
	d.Proto = netaddr.ProtoUDP
	ft := tuple("1.1.1.1", "2.2.2.2", 1, 2) // TCP
	if d.Matches(ft) {
		t.Error("UDP descriptor must not match TCP flow")
	}
	ft.Proto = netaddr.ProtoUDP
	if !d.Matches(ft) {
		t.Error("UDP descriptor must match UDP flow")
	}
}

func TestRelevantSubsets(t *testing.T) {
	tbl := paperTable(t)
	sub := netaddr.MustParsePrefix("128.40.0.0/16")
	other := netaddr.MustParsePrefix("10.9.0.0/16")

	// Proxy for subnet a: every policy's src side either is subnet a or a
	// wildcard, so all 6 are relevant.
	if got := tbl.SrcRelevant(sub); len(got) != 6 {
		t.Errorf("SrcRelevant(subnet a) = %d policies, want 6", len(got))
	}
	// Proxy for an unrelated subnet: only wildcard-src policies (2).
	if got := tbl.SrcRelevant(other); len(got) != 2 {
		t.Errorf("SrcRelevant(other) = %d policies, want 2", len(got))
	}
	// Middlebox-side P_x: WP appears in 2 policies, FW in 4.
	if got := tbl.FuncRelevant([]FuncType{FuncWP}); len(got) != 2 {
		t.Errorf("FuncRelevant(WP) = %d, want 2", len(got))
	}
	if got := tbl.FuncRelevant([]FuncType{FuncFW}); len(got) != 4 {
		t.Errorf("FuncRelevant(FW) = %d, want 4", len(got))
	}
	if got := tbl.FuncRelevant([]FuncType{FuncTM}); len(got) != 0 {
		t.Errorf("FuncRelevant(TM) = %d, want 0", len(got))
	}
}

func TestAddPolicyKeepsID(t *testing.T) {
	global := NewTable()
	p := global.Add(NewDescriptor(), ActionList{FuncFW})
	local := NewTable()
	local.AddPolicy(p)
	if got := local.Match(tuple("1.1.1.1", "2.2.2.2", 1, 2)); got == nil || got.ID != p.ID {
		t.Errorf("local table lost identity: %v", got)
	}
}

// TestUpdateNeverMutatesInPlace pins the rule Policy's doc comment states
// and the controller's diff relies on (pointer-equal means unchanged): an
// edit leaves the value behind the old pointer as it was, and the rule's
// hash follows every field.
func TestUpdateNeverMutatesInPlace(t *testing.T) {
	tbl := NewTable()
	old := tbl.Add(NewDescriptor(), ActionList{FuncFW, FuncIDS})
	before, beforeHash := *old, old.Hash()

	d := NewDescriptor()
	d.DstPort = netaddr.SinglePort(80)
	edited := tbl.Update(old.ID, d, ActionList{FuncFW})
	if edited == old || tbl.Get(old.ID) != edited {
		t.Fatalf("Update returned %p for %p; the table holds %p", edited, old, tbl.Get(old.ID))
	}
	if old.ID != before.ID || old.Prio != before.Prio || old.Desc != before.Desc ||
		len(old.Actions) != 2 || old.Actions[0] != FuncFW || old.Actions[1] != FuncIDS || old.Hash() != beforeHash {
		t.Errorf("the old pointer's rule changed under its holders: %v, was %v", old, &before)
	}
	if edited.ID != old.ID || edited.Prio != old.Prio {
		t.Errorf("edit moved the rule: id %d prio %d, was id %d prio %d", edited.ID, edited.Prio, old.ID, old.Prio)
	}

	// Every field moves the hash; an identical copy does not.
	same := *edited
	if same.Hash() != edited.Hash() {
		t.Error("equal rules hash differently")
	}
	variants := map[string]func(p *Policy){
		"id":       func(p *Policy) { p.ID++ },
		"prio":     func(p *Policy) { p.Prio++ },
		"src":      func(p *Policy) { p.Desc.Src = netaddr.MustParsePrefix("10.0.0.0/8") },
		"dst":      func(p *Policy) { p.Desc.Dst = netaddr.MustParsePrefix("10.0.0.0/8") },
		"src port": func(p *Policy) { p.Desc.SrcPort = netaddr.SinglePort(80) },
		"dst port": func(p *Policy) { p.Desc.DstPort = netaddr.SinglePort(81) },
		"proto":    func(p *Policy) { p.Desc.Proto = netaddr.ProtoUDP },
		"actions":  func(p *Policy) { p.Actions = ActionList{FuncFW, FuncIDS} },
		"order":    func(p *Policy) { p.Actions = ActionList{FuncIDS} },
	}
	for name, change := range variants {
		v := *edited
		change(&v)
		if v.Hash() == edited.Hash() {
			t.Errorf("changing %s leaves the hash at %x", name, v.Hash())
		}
	}
}

func randomDescriptor(rng *rand.Rand) Descriptor {
	d := NewDescriptor()
	if rng.Intn(2) == 0 {
		d.Src = netaddr.PrefixFrom(netaddr.Addr(rng.Uint32()), rng.Intn(33))
	}
	if rng.Intn(2) == 0 {
		d.Dst = netaddr.PrefixFrom(netaddr.Addr(rng.Uint32()), rng.Intn(33))
	}
	if rng.Intn(3) == 0 {
		p := uint16(rng.Intn(65536))
		d.SrcPort = netaddr.SinglePort(p)
	}
	if rng.Intn(3) == 0 {
		p := uint16(rng.Intn(65536))
		d.DstPort = netaddr.SinglePort(p)
	}
	if rng.Intn(4) == 0 {
		d.Proto = netaddr.ProtoUDP
	}
	return d
}

// randomTable draws n random rules; every fourth is a permit rule.
func randomTable(n int, rng *rand.Rand) *Table {
	tbl := NewTable()
	for i := 0; i < n; i++ {
		a := ActionList{FuncFW}
		if i%4 == 3 {
			a = nil
		}
		d := randomDescriptor(rng)
		for d.Src.IsAny() && d.Dst.IsAny() {
			d = randomDescriptor(rng) // a catch-all rule would leave no probe unmatched
		}
		tbl.Add(d, a)
	}
	return tbl
}

// probeMix counts what a run of probes exercised.
type probeMix struct{ hits, misses, permits int }

func (m probeMix) require(t *testing.T) {
	t.Helper()
	if m.hits == 0 || m.misses == 0 || m.permits == 0 {
		t.Fatalf("probes made %+v; a kind that never occurs proves nothing", m)
	}
}

// checkMatchesTable probes c with random flows, half of them derived from
// a random rule of tbl so that matches (permit rules among them) occur and
// half uniform so that misses do, and requires exactly tbl.Match's answer.
func checkMatchesTable(t *testing.T, tbl *Table, c Classifier, rng *rand.Rand, mix *probeMix) {
	t.Helper()
	if c.Len() != tbl.Len() {
		t.Fatalf("Len %d != %d", c.Len(), tbl.Len())
	}
	for probe := 0; probe < 300; probe++ {
		ft := netaddr.FiveTuple{
			Src: netaddr.Addr(rng.Uint32()), Dst: netaddr.Addr(rng.Uint32()),
			SrcPort: uint16(rng.Intn(65536)), DstPort: uint16(rng.Intn(65536)),
			Proto: netaddr.ProtoTCP,
		}
		if probe%2 == 0 {
			p := tbl.All()[rng.Intn(tbl.Len())]
			ft.Src = p.Desc.Src.Addr() + netaddr.Addr(rng.Intn(4))
			ft.Dst = p.Desc.Dst.Addr() + netaddr.Addr(rng.Intn(4))
			ft.SrcPort, ft.DstPort = p.Desc.SrcPort.Lo, p.Desc.DstPort.Lo
		}
		want, got := tbl.Match(ft), c.Match(ft)
		if want != got {
			t.Fatalf("%d rules, probe %v: got %v, linear table says %v", tbl.Len(), ft, got, want)
		}
		switch {
		case want == nil:
			mix.misses++
		case want.Actions.IsPermit():
			mix.permits++
		default:
			mix.hits++
		}
	}
}

func TestTrieMatchesLinearTable(t *testing.T) {
	// Property: on random policy sets and random probes the trie
	// classifier returns exactly the linear table's answer.
	rng := rand.New(rand.NewSource(99))
	var mix probeMix
	for trial := 0; trial < 30; trial++ {
		tbl := randomTable(1+rng.Intn(40), rng)
		checkMatchesTable(t, tbl, NewTrieClassifier(tbl.All()), rng, &mix)
	}
	mix.require(t)
}

// TestNewClassifierSelectsBySize: the scan below trieThreshold rules, the
// trie from there on, and on either side of the switch (and at the
// benchmark's largest table) exactly the reference table's matches.
func TestNewClassifierSelectsBySize(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{trieThreshold - 1, trieThreshold, trieThreshold + 1, 300} {
		var mix probeMix
		for trial := 0; trial < 5; trial++ {
			tbl := randomTable(n, rng)
			c := NewClassifier(tbl.All())
			if _, isTrie := c.(*TrieClassifier); isTrie != (n >= trieThreshold) {
				t.Fatalf("%d rules: NewClassifier built a %T", n, c)
			}
			checkMatchesTable(t, tbl, c, rng, &mix)
		}
		mix.require(t)
	}
}

func TestTrieOnPaperTable(t *testing.T) {
	tbl := paperTable(t)
	trie := NewTrieClassifier(tbl.All())
	probes := []netaddr.FiveTuple{
		tuple("128.40.1.1", "128.40.2.2", 5000, 80),
		tuple("9.9.9.9", "128.40.2.2", 4000, 80),
		tuple("128.40.1.1", "8.8.8.8", 4000, 80),
		tuple("8.8.8.8", "128.40.1.1", 80, 4000),
		tuple("9.9.9.9", "8.8.8.8", 1, 2),
	}
	for _, ft := range probes {
		if trie.Match(ft) != tbl.Match(ft) {
			t.Errorf("trie and table disagree on %v", ft)
		}
	}
}

func TestPolicyString(t *testing.T) {
	tbl := paperTable(t)
	for _, p := range tbl.All() {
		if p.String() == "" {
			t.Error("empty policy string")
		}
	}
	d := NewDescriptor()
	if d.String() == "" {
		t.Error("empty descriptor string")
	}
}

// campusRules draws n rules shaped like the ones the controller installs
// on a node (workload.GeneratePolicies: any→subnet:port, subnet→any:80,
// subnet→subnet:port over /16 stub subnets), and probes between the same
// subnets: four in five aimed at a rule chosen uniformly, so a scan stops
// half-way through the table on average, every fifth at a port no rule
// names (the null-flow share of the benchmark's flow_churn workload).
func campusRules(n int, rng *rand.Rand) (*Table, []netaddr.FiveTuple) {
	subnet := func() netaddr.Prefix {
		return netaddr.PrefixFrom(netaddr.Addr(10<<24|uint32(1+rng.Intn(40))<<16), 16)
	}
	tbl := NewTable()
	for i := 0; i < n; i++ {
		d := NewDescriptor()
		d.DstPort = netaddr.SinglePort(uint16(1 + rng.Intn(1024)))
		switch i % 3 {
		case 0:
			d.Dst = subnet()
		case 1:
			d.Src, d.DstPort = subnet(), netaddr.SinglePort(80)
		case 2:
			d.Src, d.Dst = subnet(), subnet()
		}
		tbl.Add(d, ActionList{FuncFW})
	}
	in := func(pfx netaddr.Prefix) netaddr.Addr {
		if pfx.IsAny() {
			pfx = subnet()
		}
		return pfx.Addr() + netaddr.Addr(1+rng.Intn(1<<16-2))
	}
	probes := make([]netaddr.FiveTuple, 0, 4096)
	for len(probes) < cap(probes) {
		p := tbl.All()[rng.Intn(n)]
		hit := netaddr.FiveTuple{
			Src: in(p.Desc.Src), Dst: in(p.Desc.Dst),
			SrcPort: uint16(1024 + rng.Intn(60000)), DstPort: p.Desc.DstPort.Lo,
			Proto: netaddr.ProtoTCP,
		}
		if len(probes)%5 == 4 {
			hit.DstPort = 0
		}
		probes = append(probes, hit)
	}
	return tbl, probes
}

var matchSink *Policy

// BenchmarkTrieMatch times both classifiers over the same rules and probes
// at the table sizes around the point where NewClassifier switches from one
// to the other; trieThreshold's comment records the crossover it shows.
func BenchmarkTrieMatch(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64, 128} {
		scan, probes := campusRules(n, rand.New(rand.NewSource(1)))
		for _, c := range []struct {
			name string
			Classifier
		}{{"scan", scan}, {"trie", NewTrieClassifier(scan.All())}} {
			b.Run(fmt.Sprintf("%s/rules=%d", c.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					matchSink = c.Match(probes[i%len(probes)])
				}
			})
		}
	}
}
