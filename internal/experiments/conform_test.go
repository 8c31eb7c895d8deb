package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"sdme/internal/enforce"
)

// conforming fails the test unless r delivered every packet and every
// flow's runtime hops conform to its static plan.
func conforming(t *testing.T, name string, r *Reading) {
	t.Helper()
	for _, m := range r.Mismatches {
		t.Errorf("%s on %s: %s", name, r.Backend, m)
	}
	if r.Delivered != r.Sent || r.Sent != conformFlows*conformPackets {
		t.Errorf("%s on %s: delivered %d of %d", name, r.Backend, r.Delivered, r.Sent)
	}
	t.Logf("%s on %s: %d/%d delivered, %d mismatches, tunnel %d, label %d",
		name, r.Backend, r.Delivered, r.Sent, len(r.Mismatches), r.TunnelTx, r.LabelTx)
}

// differential runs c on both backends and fails the test on any
// disagreement or non-conforming reading.
func differential(t *testing.T, c Conformance) []*Reading {
	t.Helper()
	name := fmt.Sprintf("%s/seed=%d/%v/labels=%v", c.Topology, c.Seed, c.Strategy, c.LabelSwitching)
	rs, diffs, err := Differential(c)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, d := range diffs {
		t.Errorf("%s: sim and live disagree on %s", name, d)
	}
	for _, r := range rs {
		conforming(t, name, r)
	}
	return rs
}

// TestDifferentialConformance drives enforced flows, three packets each,
// through both substrates with the runtime tracer attached: every flow's
// hops must conform to the static plan (enforce.TraceFlow) under both the
// hot-potato and the load-balanced selector, and sim and live must read
// the same. Waxman runs on the simulator only: its edge subnets would
// mean hundreds of live proxy devices.
func TestDifferentialConformance(t *testing.T) {
	for _, strat := range []enforce.Strategy{enforce.HotPotato, enforce.LoadBalanced} {
		for _, seed := range []int64{1, 7, 11} {
			differential(t, Conformance{Topology: "campus", Seed: seed, Strategy: strat})
		}
		r, err := Conform(Sim, Conformance{Topology: "waxman", Seed: 3, Strategy: strat})
		if err != nil {
			t.Fatalf("waxman/%v: %v", strat, err)
		}
		conforming(t, "waxman/seed=3/"+strat.String(), r)
	}
}

// TestDifferentialConformanceLabels repeats the check with §III-E label
// switching on: a flow's later packets ride labels once its control
// message is back at the proxy, and must still walk the planned chain.
func TestDifferentialConformanceLabels(t *testing.T) {
	for _, strat := range []enforce.Strategy{enforce.HotPotato, enforce.LoadBalanced} {
		for _, seed := range []int64{1, 7, 11} {
			for _, r := range differential(t, Conformance{Topology: "campus", Seed: seed, Strategy: strat, LabelSwitching: true}) {
				if r.LabelTx == 0 {
					t.Errorf("campus/seed=%d/%v on %s: no packet was label-switched (tunnel %d)", seed, strat, r.Backend, r.TunnelTx)
				}
			}
		}
	}
}

// TestObservedMetricsDeterminism: two simulator runs from the same seed
// must produce byte-identical expositions — the registry exposition is
// sorted, the engine is FIFO-stable, and nothing in the path reads wall
// time or the global math/rand source (a time.Now in the snapshot stamp
// or a global draw in the workload generator fails this test).
func TestObservedMetricsDeterminism(t *testing.T) {
	c := Conformance{Topology: "campus", Seed: 5, Strategy: enforce.LoadBalanced, LabelSwitching: true}
	a, err := Conform(Sim, c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Conform(Sim, c)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Exposition, b.Exposition) {
		t.Fatalf("final expositions differ:\n--- run A ---\n%s\n--- run B ---\n%s", a.Exposition, b.Exposition)
	}
}
