package sdme_test

import (
	"strings"
	"testing"

	"sdme"
)

func deploySystem(t *testing.T, strategy sdme.Strategy) *sdme.System {
	t.Helper()
	sys, err := sdme.NewCampus(1)
	if err != nil {
		t.Fatal(err)
	}
	sys.MustAddPolicy("*", "*", "*", "80", "FW,IDS")
	sys.MustAddPolicy("10.1.0.0/16", "*", "*", "443", "FW,IDS,WP")
	if err := sys.Deploy(strategy); err != nil {
		t.Fatal(err)
	}
	return sys
}

func someDemands(n int) []sdme.FlowDemand {
	out := make([]sdme.FlowDemand, 0, n)
	for i := 0; i < n; i++ {
		src := 1 + i%10
		dst := 1 + (i+3)%10
		if dst == src {
			dst = 1 + (dst)%10
		}
		out = append(out, sdme.FlowDemand{
			Tuple:   sdme.Flow(sdme.HostAddr(src, 1+i%50), sdme.HostAddr(dst, 1+i%50), uint16(20000+i), 80),
			Packets: int64(1 + i%9),
		})
	}
	return out
}

func TestFacadeLifecycle(t *testing.T) {
	sys := deploySystem(t, sdme.LoadBalanced)
	demands := someDemands(500)

	lambda, err := sys.Balance(demands)
	if err != nil {
		t.Fatal(err)
	}
	if lambda <= 0 {
		t.Errorf("lambda = %v", lambda)
	}
	report, err := sys.Evaluate(demands)
	if err != nil {
		t.Fatal(err)
	}
	if report.TotalPackets == 0 {
		t.Error("no packets evaluated")
	}
	if got := report.MaxLoad(sys.Dep, sdme.IDS); got == 0 {
		t.Error("IDS untouched")
	}
	if len(sys.Providers(sdme.FW)) != 7 {
		t.Errorf("FW providers = %d, want 7 (paper population)", len(sys.Providers(sdme.FW)))
	}
	if sys.Subnets() != 10 {
		t.Errorf("subnets = %d, want 10", sys.Subnets())
	}
	if name := sys.NameOf(sys.Providers(sdme.FW)[0]); !strings.HasPrefix(name, "FW") {
		t.Errorf("provider name = %q", name)
	}
}

func TestFacadeSimulator(t *testing.T) {
	sys := deploySystem(t, sdme.HotPotato)
	nw, err := sys.Simulator()
	if err != nil {
		t.Fatal(err)
	}
	ft := sdme.Flow(sdme.HostAddr(1, 1), sdme.HostAddr(2, 1), 30000, 80)
	if err := nw.InjectFlow(ft, 5, 256, 0, 100); err != nil {
		t.Fatal(err)
	}
	nw.Run(0)
	if got := nw.Stats().Delivered; got != 5 {
		t.Errorf("delivered = %d", got)
	}
}

func TestFacadeOrderingErrors(t *testing.T) {
	sys, err := sdme.NewCampus(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Balance(nil); err == nil {
		t.Error("Balance before Deploy should fail")
	}
	if _, err := sys.Evaluate(nil); err == nil {
		t.Error("Evaluate before Deploy should fail")
	}
	if _, err := sys.Simulator(); err == nil {
		t.Error("Simulator before Deploy should fail")
	}
	if err := sys.Deploy(sdme.HotPotato); err != nil {
		t.Fatal(err)
	}
	if err := sys.Deploy(sdme.HotPotato); err == nil {
		t.Error("double Deploy should fail")
	}
	if err := sys.AddPolicy("*", "*", "*", "*", "FW"); err == nil {
		t.Error("AddPolicy after Deploy should fail")
	}
}

func TestFacadePolicyParsing(t *testing.T) {
	sys, err := sdme.NewCampus(3)
	if err != nil {
		t.Fatal(err)
	}
	good := [][5]string{
		{"*", "*", "*", "*", "permit"},
		{"10.1.0.0/16", "10.2.0.0/16", "1000-2000", "80", "FW"},
		{"", "", "", "", ""},
		{"10.1.2.3", "*", "*", "443", "IDS"},
	}
	for _, g := range good {
		if err := sys.AddPolicy(g[0], g[1], g[2], g[3], g[4]); err != nil {
			t.Errorf("AddPolicy(%v): %v", g, err)
		}
	}
	bad := [][5]string{
		{"nonsense", "*", "*", "*", "FW"},
		{"*", "10.0.0.0/99", "*", "*", "FW"},
		{"*", "*", "banana", "*", "FW"},
		{"*", "*", "*", "9-1", "FW"},
		{"*", "*", "*", "*", "NOPE"},
	}
	for _, g := range bad {
		if err := sys.AddPolicy(g[0], g[1], g[2], g[3], g[4]); err == nil {
			t.Errorf("AddPolicy(%v) should fail", g)
		}
	}
}

func TestFacadeWaxman(t *testing.T) {
	sys, err := sdme.NewWaxman(4)
	if err != nil {
		t.Fatal(err)
	}
	sys.MustAddPolicy("*", "*", "*", "80", "FW,IDS")
	if err := sys.Deploy(sdme.Random); err != nil {
		t.Fatal(err)
	}
	if sys.Subnets() != 400 {
		t.Errorf("waxman subnets = %d", sys.Subnets())
	}
	report, err := sys.Evaluate(someDemands(200))
	if err != nil {
		t.Fatal(err)
	}
	if report.TotalPackets == 0 {
		t.Error("nothing evaluated")
	}
}

func TestFacadeUnknownTopology(t *testing.T) {
	if _, err := sdme.NewSystem(sdme.Config{Topology: "ring"}); err == nil {
		t.Error("unknown topology should fail")
	}
}

func TestFacadeMustAddPolicyPanics(t *testing.T) {
	sys, err := sdme.NewCampus(5)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustAddPolicy on bad input should panic")
		}
	}()
	sys.MustAddPolicy("bad", "*", "*", "*", "FW")
}

func TestFacadeTrace(t *testing.T) {
	sys := deploySystem(t, sdme.HotPotato)
	ft := sdme.Flow(sdme.HostAddr(3, 1), sdme.HostAddr(2, 1), 30000, 80)
	tr, err := sys.Trace(ft)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Policy == nil || len(tr.Hops) != 2 {
		t.Fatalf("trace = %v", tr)
	}
	if tr.Hops[0].Func != sdme.FW || tr.Hops[1].Func != sdme.IDS {
		t.Errorf("hop functions: %v", tr.Hops)
	}
	// Tracing and evaluating agree on the chosen firewall.
	report, err := sys.Evaluate([]sdme.FlowDemand{{Tuple: ft, Packets: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if report.Loads[tr.Hops[0].Node] != 5 {
		t.Errorf("traced FW %v did not receive the flow: %v", tr.Hops[0].Node, report.SortedLoads())
	}
}

func TestFacadeFailureRepair(t *testing.T) {
	sys := deploySystem(t, sdme.HotPotato)
	ft := sdme.Flow(sdme.HostAddr(3, 1), sdme.HostAddr(2, 1), 30000, 80)
	tr, err := sys.Trace(ft)
	if err != nil {
		t.Fatal(err)
	}
	victim := tr.Hops[0].Node
	if err := sys.FailMiddlebox(victim, true); err != nil {
		t.Fatal(err)
	}
	tr2, err := sys.Trace(ft)
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Hops[0].Node == victim {
		t.Error("flow still routed through the failed middlebox")
	}
	if err := sys.FailMiddlebox(victim, false); err != nil {
		t.Fatal(err)
	}
	tr3, err := sys.Trace(ft)
	if err != nil {
		t.Fatal(err)
	}
	if tr3.Hops[0].Node != victim {
		t.Error("recovery did not restore the original assignment")
	}
	// Failing a non-middlebox errors.
	if err := sys.FailMiddlebox(sdme.NodeID(0), true); err == nil {
		t.Error("failing a router should error")
	}
}

func TestFacadeLint(t *testing.T) {
	sys, err := sdme.NewCampus(6)
	if err != nil {
		t.Fatal(err)
	}
	sys.MustAddPolicy("*", "*", "*", "*", "FW")
	sys.MustAddPolicy("10.1.0.0/16", "*", "*", "80", "IDS") // dead: shadowed by the wildcard
	findings := sys.LintPolicies()
	if len(findings) != 1 {
		t.Fatalf("findings = %v", findings)
	}
}

func TestFacadeLoadPolicies(t *testing.T) {
	sys, err := sdme.NewCampus(7)
	if err != nil {
		t.Fatal(err)
	}
	rules := `
# protect subnet 2's web service
*            10.2.0.0/16 * 80 FW,IDS
10.1.0.0/16  *           * 443 FW,IDS,WP
`
	if err := sys.LoadPolicies(strings.NewReader(rules)); err != nil {
		t.Fatal(err)
	}
	if err := sys.Deploy(sdme.HotPotato); err != nil {
		t.Fatal(err)
	}
	tr, err := sys.Trace(sdme.Flow(sdme.HostAddr(3, 1), sdme.HostAddr(2, 1), 40000, 80))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Policy == nil || len(tr.Hops) != 2 {
		t.Errorf("loaded policy not enforced: %v", tr)
	}
	if err := sys.LoadPolicies(strings.NewReader("broken")); err == nil {
		t.Error("LoadPolicies after Deploy should fail")
	}
}

func TestFacadeVerify(t *testing.T) {
	sys := deploySystem(t, sdme.LoadBalanced)
	if vs := sys.Verify(); len(vs) != 0 {
		t.Errorf("fresh deployment has violations: %v", vs)
	}
	// Failing a middlebox and repairing keeps the deployment verified.
	victim := sys.Providers(sdme.FW)[0]
	if err := sys.FailMiddlebox(victim, true); err != nil {
		t.Fatal(err)
	}
	if vs := sys.Verify(); len(vs) != 0 {
		t.Errorf("violations after repair: %v", vs)
	}
}
