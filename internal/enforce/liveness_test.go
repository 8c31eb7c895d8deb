package enforce_test

import (
	"errors"
	"testing"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/packet"
	"sdme/internal/policy"
	"sdme/internal/topo"
)

// TestSelectNextFailoverAndRecovery: marking the preferred candidate dead
// diverts selection to the next ranked backup with no other state change;
// recovery restores the original pick.
func TestSelectNextFailoverAndRecovery(t *testing.T) {
	tb := newTestbed(t, controller.Options{Strategy: enforce.HotPotato}, webPolicy)
	proxy := tb.proxy(t, 1)
	cands := proxy.Config().Candidates[policy.FuncFW]
	if len(cands) < 2 {
		t.Fatalf("need >= 2 FW candidates, got %v", cands)
	}
	ft := flowFromSubnet(1, 2, 80)
	pid := tb.tbl.All()[0].ID

	got, err := proxy.SelectNext(pid, policy.FuncFW, ft)
	if err != nil || got != cands[0] {
		t.Fatalf("baseline pick = %v, %v; want %v", got, err, cands[0])
	}
	if !proxy.SetProviderDown(cands[0], true) {
		t.Fatal("SetProviderDown reported no change on first kill")
	}
	got, err = proxy.SelectNext(pid, policy.FuncFW, ft)
	if err != nil || got != cands[1] {
		t.Fatalf("failover pick = %v, %v; want backup %v", got, err, cands[1])
	}
	if proxy.Counters.Failovers != 1 {
		t.Errorf("Failovers = %d, want 1", proxy.Counters.Failovers)
	}
	// Idempotence: re-marking the same state reports no change.
	if proxy.SetProviderDown(cands[0], true) {
		t.Error("second SetProviderDown(true) reported a change")
	}
	if !proxy.ProviderDown(cands[0]) {
		t.Error("ProviderDown lost the kill")
	}
	if !proxy.SetProviderDown(cands[0], false) {
		t.Fatal("recovery reported no change")
	}
	got, err = proxy.SelectNext(pid, policy.FuncFW, ft)
	if err != nil || got != cands[0] {
		t.Fatalf("post-recovery pick = %v, %v; want %v", got, err, cands[0])
	}
}

// TestAllProvidersDownSurfacesErrNoLiveProvider: when every candidate for
// a function is dead, every strategy must surface the typed sentinel —
// the same one the controller's planning layer aliases — rather than
// silently picking a corpse.
func TestAllProvidersDownSurfacesErrNoLiveProvider(t *testing.T) {
	tb := newTestbed(t, controller.Options{
		Strategy: enforce.LoadBalanced,
		K:        map[policy.FuncType]int{policy.FuncFW: 2, policy.FuncIDS: 2, policy.FuncWP: 1, policy.FuncTM: 1},
	}, webPolicy)
	proxy := tb.proxy(t, 1)
	ft := flowFromSubnet(1, 2, 80)
	pid := tb.tbl.All()[0].ID
	for _, mb := range proxy.Config().Candidates[policy.FuncFW] {
		proxy.SetProviderDown(mb, true)
	}

	for _, s := range []enforce.Strategy{enforce.HotPotato, enforce.Random, enforce.LoadBalanced} {
		cfg := proxy.Config()
		cfg.Strategy = s
		if err := proxy.Install(cfg); err != nil {
			t.Fatal(err)
		}
		_, err := proxy.SelectNext(pid, policy.FuncFW, ft)
		if err == nil {
			t.Fatalf("%v: SelectNext picked a dead provider", s)
		}
		if !errors.Is(err, enforce.ErrNoLiveProvider) {
			t.Errorf("%v: err = %v, want errors.Is ErrNoLiveProvider", s, err)
		}
		// The controller-side sentinel is an alias of the same value, so a
		// recovery loop can branch without importing both packages.
		if !errors.Is(err, controller.ErrNoLiveProvider) {
			t.Errorf("%v: controller sentinel does not match: %v", s, err)
		}
		var nlc *enforce.NoLiveCandidateError
		if !errors.As(err, &nlc) {
			t.Fatalf("%v: err = %T, want *NoLiveCandidateError", s, err)
		}
		if nlc.Func != policy.FuncFW || nlc.Node != proxy.ID {
			t.Errorf("%v: error carries node %v func %v", s, nlc.Node, nlc.Func)
		}
	}
	if proxy.Counters.NoProvider == 0 {
		t.Error("NoProvider counter never moved")
	}

	// The full dataplane path surfaces the same sentinel.
	f := newFabric(t, tb.nodes)
	err := proxy.HandleOutbound(packet.New(ft, 100), 0, f)
	if !errors.Is(err, enforce.ErrNoLiveProvider) {
		t.Errorf("HandleOutbound err = %v, want ErrNoLiveProvider", err)
	}

	// One survivor is enough: delivery resumes through it.
	back := proxy.Config().Candidates[policy.FuncFW]
	proxy.SetProviderDown(back[len(back)-1], false)
	if err := proxy.HandleOutbound(packet.New(ft, 100), 1, f); err != nil {
		t.Fatalf("HandleOutbound with one live FW: %v", err)
	}
	if len(f.delivered) != 1 {
		t.Fatalf("delivered %d, want 1", len(f.delivered))
	}
}

// TestFailoverPurgesStaleLabelPaths is the stale-soft-state regression
// test: a label-switched flow whose chain rides a now-dead middlebox
// blackholes (LabelMiss at the diverted-to backup, which lacks the
// ⟨src,label⟩ entry) until the label TTL — unless the liveness event also
// purges the proxy's pinned soft state, in which case the very next
// packet reclassifies, re-tunnels IP-over-IP through live backups, and
// re-establishes the chain.
func TestFailoverPurgesStaleLabelPaths(t *testing.T) {
	tb := newTestbed(t, controller.Options{Strategy: enforce.HotPotato, LabelSwitching: true}, webPolicy)
	f := newFabric(t, tb.nodes)
	proxy := tb.proxy(t, 1)
	ft := flowFromSubnet(1, 2, 80)

	// Establish the chain: packet 1 tunnels and installs label state,
	// packet 2 rides the labels.
	for i := 0; i < 2; i++ {
		if err := proxy.HandleOutbound(packet.New(ft, 100), int64(i), f); err != nil {
			t.Fatal(err)
		}
	}
	if len(f.delivered) != 2 || proxy.Counters.LabelTx != 1 {
		t.Fatalf("chain not established: delivered=%d counters=%+v", len(f.delivered), proxy.Counters)
	}
	visits := append([]topo.NodeID(nil), f.visits[flowKeyOf(packet.New(ft, 0))]...)
	victim := visits[0] // the chain's first-hop firewall

	// Kill the victim in the proxy's liveness view WITHOUT purging: the
	// flow entry is still LabelSwitched, so the proxy labels the packet
	// and fast-failover diverts it to the backup — which has no label
	// entry for it. The packet blackholes as a LabelMiss.
	proxy.SetProviderDown(victim, true)
	if err := proxy.HandleOutbound(packet.New(ft, 100), 2, f); err != nil {
		t.Fatal(err)
	}
	if len(f.delivered) != 2 {
		t.Fatalf("stale labeled packet was delivered; want blackhole until TTL")
	}
	var missAt *enforce.Node
	for id, n := range tb.nodes {
		if n.Counters.LabelMiss > 0 {
			if id == victim {
				t.Fatalf("LabelMiss at the dead victim %v — failover never diverted", id)
			}
			missAt = n
		}
	}
	if missAt == nil {
		t.Fatal("no LabelMiss recorded anywhere; where did the packet go?")
	}

	// Now the fix under test: purging the victim's soft state (what the
	// sim's SetNodeDown and the live runtime's health monitor do) makes
	// the next packet re-enter the slow path.
	if purged := proxy.InvalidateProvider(victim); purged == 0 {
		t.Fatal("InvalidateProvider purged nothing; stale entry survived")
	}
	if proxy.Counters.Invalidated == 0 {
		t.Error("Invalidated counter never moved")
	}
	tunnelsBefore := proxy.Counters.TunnelTx
	if err := proxy.HandleOutbound(packet.New(ft, 100), 3, f); err != nil {
		t.Fatal(err)
	}
	if proxy.Counters.TunnelTx != tunnelsBefore+1 {
		t.Fatalf("post-purge packet not re-tunneled IP-over-IP: %+v", proxy.Counters)
	}
	if len(f.delivered) != 3 {
		t.Fatalf("post-purge packet not delivered: %d", len(f.delivered))
	}
	reVisits := f.visits[flowKeyOf(packet.New(ft, 0))][len(visits)+1:]
	for _, id := range reVisits {
		if id == victim {
			t.Fatalf("re-established chain still crosses dead %v: %v", victim, reVisits)
		}
	}

	// The re-tunneled packet rebuilt label state on the backup path: the
	// flow rides labels again, fully avoiding the victim.
	if err := proxy.HandleOutbound(packet.New(ft, 100), 4, f); err != nil {
		t.Fatal(err)
	}
	if len(f.delivered) != 4 {
		t.Fatalf("re-established labeled packet dropped: delivered=%d", len(f.delivered))
	}
	if f.controls != 2 {
		t.Errorf("controls = %d, want 2 (one per chain installation)", f.controls)
	}
}
