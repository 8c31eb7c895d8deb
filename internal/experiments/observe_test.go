package experiments

import (
	"bytes"
	"testing"

	"sdme/internal/enforce"
)

// TestDifferentialConformance is the sim half of the differential
// conformance suite: randomized topologies, policies and flows are
// driven through the simulated dataplane with the runtime tracer
// attached, and every sampled trace must equal the static plan
// (enforce.TraceFlow) hop for hop — node sequence and functions — under
// both the hot-potato and the load-balanced selector.
func TestDifferentialConformance(t *testing.T) {
	cases := []struct {
		topology string
		seed     int64
	}{
		{"campus", 1},
		{"campus", 7},
		{"waxman", 3},
	}
	for _, strat := range []enforce.Strategy{enforce.HotPotato, enforce.LoadBalanced} {
		for _, tc := range cases {
			bed, err := NewBed(Config{Topology: tc.topology, Seed: tc.seed, PoliciesPerClass: 4})
			if err != nil {
				t.Fatal(err)
			}
			run, err := bed.RunObserved(ObserveConfig{Strategy: strat, Flows: 50})
			if err != nil {
				t.Fatalf("%v/%s/seed=%d: %v", strat, tc.topology, tc.seed, err)
			}
			if len(run.Flows) < 50 {
				t.Fatalf("%v/%s/seed=%d: only %d flows", strat, tc.topology, tc.seed, len(run.Flows))
			}
			for _, m := range run.Mismatches {
				t.Errorf("%v/%s/seed=%d: %v", strat, tc.topology, tc.seed, m)
			}
			if len(run.Mismatches) == 0 {
				t.Logf("%v/%s/seed=%d: %d runtime traces match static plans",
					strat, tc.topology, tc.seed, len(run.Flows))
			}
		}
	}
}

// TestDifferentialConformanceLabels repeats the check with §III-E label
// switching on: after the first packet flips a flow to labels, the
// runtime path must still be the planned one.
func TestDifferentialConformanceLabels(t *testing.T) {
	for _, strat := range []enforce.Strategy{enforce.HotPotato, enforce.LoadBalanced} {
		bed, err := NewBed(Config{Topology: "campus", Seed: 11, PoliciesPerClass: 4})
		if err != nil {
			t.Fatal(err)
		}
		run, err := bed.RunObserved(ObserveConfig{Strategy: strat, Flows: 50, LabelSwitching: true})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		for _, m := range run.Mismatches {
			t.Errorf("%v: %v", strat, m)
		}
	}
}

// TestObservedMetricsDeterminism: two runs from the same seed must
// produce byte-identical metrics snapshots — the registry exposition is
// sorted, the engine is FIFO-stable, and nothing in the path reads wall
// time or the global math/rand source (a time.Now in the snapshot stamp
// or a global draw in the workload generator fails this test).
func TestObservedMetricsDeterminism(t *testing.T) {
	one := func() (*ObservedRun, []byte) {
		bed, err := NewBed(Config{Topology: "campus", Seed: 5, PoliciesPerClass: 4})
		if err != nil {
			t.Fatal(err)
		}
		run, err := bed.RunObserved(ObserveConfig{
			Strategy: enforce.LoadBalanced, Flows: 50, SnapshotEveryUS: 500,
		})
		if err != nil {
			t.Fatal(err)
		}
		return run, run.Registry.Snapshot().Text
	}
	a, atext := one()
	b, btext := one()
	if !bytes.Equal(atext, btext) {
		t.Fatalf("final snapshots differ:\n--- run A ---\n%s\n--- run B ---\n%s", atext, btext)
	}
	snapsA, snapsB := a.Network.Snapshots(), b.Network.Snapshots()
	if len(snapsA) == 0 || len(snapsA) != len(snapsB) {
		t.Fatalf("snapshot counts: %d vs %d", len(snapsA), len(snapsB))
	}
	for i := range snapsA {
		if snapsA[i].AtUS != snapsB[i].AtUS || !bytes.Equal(snapsA[i].Text, snapsB[i].Text) {
			t.Fatalf("periodic snapshot %d differs (at %dus vs %dus)", i, snapsA[i].AtUS, snapsB[i].AtUS)
		}
	}
}
