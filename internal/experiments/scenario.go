package experiments

// Fault scenarios: the dependability story of the paper, measured. A
// scripted fault schedule (internal/faultinject) crashes middleboxes,
// wedges a device and drops a management connection while traffic flows;
// the scenario's Reaction says what follows. A scenario is a value; Run
// plays it on either Backend, so the simulator's exact, deterministic
// numbers and the live runtime's real sockets answer the same question.

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/faultinject"
	"sdme/internal/mgmt"
	"sdme/internal/netaddr"
	"sdme/internal/policy"
	"sdme/internal/route"
	"sdme/internal/topo"
)

// Reaction is what follows a health transition.
type Reaction int

const (
	// LivenessOnly: the dataplane's liveness view diverts flows to the
	// pre-installed backup candidates; nothing touches the controller or
	// the management channel.
	LivenessOnly Reaction = iota
	// Repair: the controller also marks the failure, recomputes and
	// verifies a plan without the dead boxes, and rolls its deltas out.
	Repair
)

// Scenario is one fault story on the fixed faultBed: the workload, the
// fault schedule, and the reaction.
type Scenario struct {
	// Seed drives topology construction and the schedule's jitter.
	Seed int64
	// Flows and PacketsPerFlow size the background workload.
	Flows, PacketsPerFlow int
	// Schedule overrides the reaction's acceptance schedule; its targets
	// must exist in the bed's deployment.
	Schedule *faultinject.Schedule
	Reaction Reaction
}

// Recovery is the acceptance scenario for the repair loop: crash two
// middleboxes (one firewall, one IDS), drop the management connection of
// one proxy, and wedge a second firewall for 60ms. Every function keeps a
// live provider throughout, so the repaired plan always exists.
func Recovery(seed int64) Scenario {
	return Scenario{Seed: seed, Flows: 40, PacketsPerFlow: 200, Reaction: Repair}
}

// Failover is the acceptance scenario for local fast failover: the
// primary firewall of subnet 1's proxy dies at 30ms and nothing reacts —
// every delivery after that rode the pre-installed backup candidates.
func Failover(seed int64) Scenario {
	return Scenario{Seed: seed, Flows: 40, PacketsPerFlow: 200, Reaction: LivenessOnly}
}

// schedule resolves the scenario's fault script over the bed.
func (sc Scenario) schedule(b *faultBed) (*faultinject.Schedule, error) {
	if sc.Schedule != nil {
		return sc.Schedule, nil
	}
	proxy, ok := b.Dep.ProxyFor(1)
	if !ok {
		return nil, fmt.Errorf("experiments: no proxy for subnet 1")
	}
	if sc.Reaction == Repair {
		return &faultinject.Schedule{Seed: sc.Seed, Events: []faultinject.Event{
			{AtUS: 20_000, Kind: faultinject.KindCrash, Target: b.fw[0]},
			{AtUS: 30_000, Kind: faultinject.KindCrash, Target: b.ids[0]},
			{AtUS: 40_000, Kind: faultinject.KindConnDrop, Target: proxy},
			{AtUS: 50_000, Kind: faultinject.KindWedge, Target: b.fw[1]},
			{AtUS: 110_000, Kind: faultinject.KindUnwedge, Target: b.fw[1]},
		}}, nil
	}
	// The death that exercises failover the hardest: the proxy's primary
	// (rank-0) firewall candidate.
	cands := b.Nodes[proxy].Config().Candidates[policy.FuncFW]
	if len(cands) < 2 {
		return nil, fmt.Errorf("experiments: proxy %v has %d firewall candidates, need a backup", proxy, len(cands))
	}
	return &faultinject.Schedule{Seed: sc.Seed, Events: []faultinject.Event{
		{AtUS: 30_000, Kind: faultinject.KindCrash, Target: cands[0]},
	}}, nil
}

// faultBed is the fixed small deployment every fault story runs on: three
// firewalls and two IDS boxes on a campus, web traffic crossing two
// subnets, so the acceptance schedules always leave every function a
// live provider.
type faultBed struct {
	Site
	Plane
	tbl  *policy.Table
	ap   *route.AllPairs
	opts controller.Options
	fw   []topo.NodeID // fw1 fw2 fw3
	ids  []topo.NodeID // ids1 ids2
}

func newFaultBed(seed int64, strategy enforce.Strategy) (*faultBed, error) {
	rng := rand.New(rand.NewSource(seed))
	g := topo.Campus(topo.CampusConfig{Gateways: 2, CoreRouters: 6, EdgeRouters: 3, WithProxies: true}, rng)
	dep, err := enforce.NewDeployment(g)
	if err != nil {
		return nil, err
	}
	cores := g.NodesOfKind(topo.KindCoreRouter)
	if len(cores) < 5 {
		return nil, fmt.Errorf("experiments: fault bed needs 5 core routers, topology has %d", len(cores))
	}
	b := &faultBed{tbl: policy.NewTable()}
	b.Graph, b.Dep = g, dep
	b.fw = append(b.fw,
		dep.AddMiddlebox(cores[0], "fw1", policy.FuncFW),
		dep.AddMiddlebox(cores[1], "fw2", policy.FuncFW),
		dep.AddMiddlebox(cores[2], "fw3", policy.FuncFW))
	b.ids = append(b.ids,
		dep.AddMiddlebox(cores[3], "ids1", policy.FuncIDS),
		dep.AddMiddlebox(cores[4], "ids2", policy.FuncIDS))

	d := policy.NewDescriptor()
	d.DstPort = netaddr.SinglePort(80)
	b.tbl.Add(d, policy.ActionList{policy.FuncFW, policy.FuncIDS})

	b.ap = route.NewAllPairs(g, route.RouterTransitOnly(g))
	b.opts = controller.Options{
		Strategy: strategy,
		K:        map[policy.FuncType]int{policy.FuncFW: 2, policy.FuncIDS: 2},
		HashSeed: uint64(seed),
		Verify:   true,
	}
	b.Ctl = b.newController()
	b.Pipe, b.Nodes, _, err = Deploy(b.Ctl, controller.PipelineOptions{}, nil)
	if err != nil {
		return nil, err
	}
	return b, nil
}

// newController builds a controller over the bed's static inputs. A
// restarted or promoted controller must be built with the same ones, or
// the journal's fingerprint check refuses the replay.
func (b *faultBed) newController() *controller.Controller {
	return controller.New(b.Dep, b.ap, b.tbl, b.opts)
}

// bedFlow builds the i-th workload five-tuple: web traffic from subnet 1
// hosts to subnet 2 hosts and back.
func bedFlow(i int) netaddr.FiveTuple {
	src, dst := 1, 2
	if i%2 == 1 {
		src, dst = 2, 1
	}
	return netaddr.FiveTuple{
		Src: topo.HostAddr(src, 1+i/2), Dst: topo.HostAddr(dst, 100+i/2),
		SrcPort: uint16(40000 + i), DstPort: 80, Proto: netaddr.ProtoTCP,
	}
}

// FaultResult reports one backend's run of a fault scenario: the
// substrate's final Totals, and what the story made of them.
type FaultResult struct {
	// Substrate is the backend's name, "sim" or "live".
	Substrate string
	Seed      int64
	Totals
	// DeliveredPreFault / DeliveredPostFault split deliveries around the
	// first fault; Resumed is DeliveredPostFault > 0.
	DeliveredPreFault, DeliveredPostFault int64
	Resumed                               bool
	// PushesDuring counts management pushes issued after the first fault:
	// zero is the zero-round-trip claim of a LivenessOnly scenario.
	PushesDuring int64
	// ConvergeUS is the time from the last fault event to the last
	// completed (verified, rolled-out) repair.
	ConvergeUS int64
	// Repairs counts completed plan repairs; Degraded counts repair
	// attempts aborted because a function had no live provider left.
	Repairs, Degraded int
	// VerifyOK: the final plan passes every internal/verify invariant.
	// Converged: the run settled — InSync with a plan that verifies and,
	// under Repair, came from a completed repair.
	VerifyOK, Converged bool
}

// repairLoop is the controller's reaction to health transitions.
type repairLoop struct {
	sub Substrate
	Plane
	middleboxes []topo.NodeID

	// mu serializes repairs and guards the counters. A repair can hold it
	// for seconds (a rollout awaiting a wedged device), so nothing the
	// fault schedule runs may wait on it.
	mu                sync.Mutex
	repairs, degraded int
	repairedUS        int64
	err               error
}

// repair records the state change, recompiles the verified plan, and
// rolls its deltas out. Three outcomes are expected and absorbed; anything
// else fails the run.
func (r *repairLoop) repair(id topo.NodeID, down bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return
	}
	if !slices.Contains(r.middleboxes, id) {
		return // routers and proxies carry no function; nothing to repair
	}
	//vet:ignore lockedblocking -- a repair holds mu end to end by design: the story's final read must wait out a repair in flight
	if r.err = r.Ctl.MarkFailed(id, down); r.err != nil {
		return
	}
	r.Pipe.NodeChanged(id)
	//vet:ignore lockedblocking -- as above
	upd, err := r.Pipe.Recompute(nil)
	if errors.Is(err, controller.ErrNoLiveProvider) {
		r.degraded++
		return
	}
	if err == nil {
		err = r.sub.Rollout(r.Plane, upd)
	}
	switch {
	case err == nil, errors.Is(err, mgmt.ErrCommitStraggler):
		// A commit straggler is a device that died between the fault and
		// its detection: its agent staged the plan, then could not apply
		// it. The plan is decided all the same; the next health
		// transition plans around the death.
		r.repairs++
		r.repairedUS = r.sub.NowUS()
	case abortedPrepare(err):
		// No node applied anything and the pipeline rolled back: the next
		// health transition repairs from the plan the fleet still runs.
	default:
		r.err = fmt.Errorf("experiments: repair after node %v down=%v: %w", id, down, err)
	}
}

// abortedPrepare reports a rollout no node applied because one of them
// could not be reached or refused to stage it.
func abortedPrepare(err error) bool {
	var refused *mgmt.RefusedError
	return errors.As(err, &refused) || errors.Is(err, mgmt.ErrAckTimeout) ||
		errors.Is(err, mgmt.ErrNotConnected) || errors.Is(err, mgmt.ErrConnClosed)
}

// Run plays one scenario on one backend.
func Run(on Backend, sc Scenario) (*FaultResult, error) {
	bed, err := newFaultBed(sc.Seed, enforce.HotPotato)
	if err != nil {
		return nil, err
	}
	// Resolved before a substrate owns the nodes: it reads their configs.
	sched, err := sc.schedule(bed)
	if err != nil {
		return nil, err
	}
	sub, err := on.newSubstrate(bed.Site)
	if err != nil {
		return nil, err
	}
	defer sub.Close()
	if err := sub.Rollout(bed.Plane, nil); err != nil {
		return nil, fmt.Errorf("experiments: initial rollout: %w", err)
	}
	loop := &repairLoop{sub: sub, Plane: bed.Plane, middleboxes: bed.Dep.MBNodes}
	if sc.Reaction == Repair {
		sub.OnHealth(loop.repair)
	}
	flows := make([]netaddr.FiveTuple, sc.Flows)
	for i := range flows {
		flows[i] = bedFlow(i)
	}
	if err := sub.Offer(flows, sc.PacketsPerFlow); err != nil {
		return nil, err
	}

	// Both are written by the schedule's replay only and read after Play
	// returns. The replay never waits on the repair loop's lock: a repair
	// can be waiting for the very unwedge the schedule has yet to fire.
	var atFault *Totals
	var lastFaultUS int64
	sub.Play(sched, func(ev faultinject.Event) {
		if atFault == nil {
			t := sub.Totals()
			atFault = &t
		}
		lastFaultUS = sub.NowUS()
		sub.Apply(ev)
	})
	if atFault == nil {
		return nil, fmt.Errorf("experiments: empty fault schedule")
	}
	settled := sub.Await(15_000_000, func() bool {
		if sc.Reaction == Repair {
			loop.mu.Lock()
			repaired := loop.repairs > 0
			loop.mu.Unlock()
			return repaired && sub.Totals().InSync
		}
		t := sub.Totals()
		return t.Failovers > 0 && t.Delivered > atFault.Delivered+int64(len(flows))
	})
	sub.Drain()

	t := sub.Totals()
	loop.mu.Lock()
	defer loop.mu.Unlock()
	if loop.err != nil {
		return nil, loop.err
	}
	res := &FaultResult{
		Substrate: on.name, Seed: sc.Seed, Totals: t,
		DeliveredPreFault:  atFault.Delivered,
		DeliveredPostFault: t.Delivered - atFault.Delivered,
		PushesDuring:       t.Pushes - atFault.Pushes,
		Repairs:            loop.repairs, Degraded: loop.degraded,
		VerifyOK: len(bed.Ctl.VerifyPlan(bed.Pipe.Plan())) == 0,
	}
	res.Resumed = res.DeliveredPostFault > 0
	if loop.repairedUS > lastFaultUS {
		res.ConvergeUS = loop.repairedUS - lastFaultUS
	}
	res.Converged = settled && res.VerifyOK && (sc.Reaction != Repair || res.Repairs > 0)
	return res, nil
}

// RecoveryTable is results/recovery.csv: one row per backend.
func RecoveryTable(rs []FaultResult) *Table {
	t := NewTable("substrate", "seed", "injected", "delivered", "dropped_down", "converge_us",
		"repairs", "degraded", "reconnects", "final_epoch", "verify_ok", "converged")
	for _, r := range rs {
		t.Add(r.Substrate, r.Seed, r.Injected, r.Delivered, r.DroppedDown, r.ConvergeUS,
			r.Repairs, r.Degraded, r.Reconnects, r.Epoch, r.VerifyOK, r.Converged)
	}
	return t
}
