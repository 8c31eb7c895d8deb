// Failure recovery: the "dependable" in the paper's title, demonstrated.
// A middlebox dies; the controller recomputes the closest/candidate
// assignments over the survivors and reconfigures the running nodes in
// place; the enforcement audit proves every policy is still enforced;
// traffic shifts without touching a single router.
//
//	go run ./examples/failure-recovery
package main

import (
	"fmt"
	"log"

	"sdme"
)

func main() {
	sys, err := sdme.NewCampus(20)
	if err != nil {
		log.Fatal(err)
	}
	sys.MustAddPolicy("*", "*", "*", "80", "FW,IDS")
	if err := sys.Deploy(sdme.HotPotato); err != nil {
		log.Fatal(err)
	}

	// A flow from subnet 3 to subnet 2's web server.
	ft := sdme.Flow(sdme.HostAddr(3, 1), sdme.HostAddr(2, 1), 41000, 80)
	tr, err := sys.Trace(ft)
	if err != nil {
		log.Fatal(err)
	}
	victim := tr.Hops[0].Node
	fmt.Printf("before failure: %s\n", tr)
	fmt.Printf("the flow's firewall is %s\n\n", sys.NameOf(victim))

	if vs := sys.Verify(); len(vs) != 0 {
		log.Fatalf("audit violations on a fresh deployment: %v", vs)
	}
	fmt.Println("audit: every policy enforceable from every subnet ✓")

	// The firewall dies. FailMiddlebox runs the control loop's repair
	// turn (MarkFailed + Recompute): candidate sets are recompiled over
	// the survivors and the deltas applied to the running nodes in place
	// (soft state preserved). No router is touched —
	// the network never knew the middlebox existed.
	fmt.Printf("\n*** %s fails ***\n\n", sys.NameOf(victim))
	if err := sys.FailMiddlebox(victim, true); err != nil {
		log.Fatal(err)
	}

	tr2, err := sys.Trace(ft)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after repair:  %s\n", tr2)
	fmt.Printf("the flow now uses %s (+%.0f hops vs the dead box's path)\n",
		sys.NameOf(tr2.Hops[0].Node), tr2.TotalCost()-tr.TotalCost())
	if vs := sys.Verify(); len(vs) != 0 {
		log.Fatalf("audit violations after repair: %v", vs)
	}
	fmt.Println("audit: still clean with the failed box excluded ✓")

	// Recovery: the box comes back, assignments are restored.
	if err := sys.FailMiddlebox(victim, false); err != nil {
		log.Fatal(err)
	}
	tr3, err := sys.Trace(ft)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter recovery: flow back on %s\n", sys.NameOf(tr3.Hops[0].Node))

	// The same machinery handles mass failures — until a function loses
	// its last provider, which the controller refuses loudly.
	for _, id := range sys.Providers(sdme.IDS) {
		if err := sys.FailMiddlebox(id, true); err != nil {
			fmt.Printf("\nfailing the last IDS middleboxes: %v\n", err)
			fmt.Println("(enforcement of IDS policies would be impossible; the operator must know)")
			break
		}
	}
}
