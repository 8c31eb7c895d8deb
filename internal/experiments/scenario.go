package experiments

// Fault scenarios: the dependability story of the paper, measured. A
// scripted fault schedule (internal/faultinject) crashes middleboxes,
// wedges a device, drops a management connection and kills or restarts
// the controller while traffic flows; the scenario's Reaction says what
// follows a health transition, and a controller that starts to lead
// always restores what the journal kept and rolls it out. A scenario is a
// value; Run plays it on either Backend, so the simulator's exact,
// deterministic numbers and the live runtime's real sockets answer the
// same question.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
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
// control plane, the fault schedule, and the reaction.
type Scenario struct {
	// Seed drives topology construction, the schedule's jitter and the
	// replicas' election jitter.
	Seed int64
	// Flows and PacketsPerFlow size the background workload.
	Flows, PacketsPerFlow int
	// Replicas is the size of the controller group (0: one unreplicated
	// controller).
	Replicas int
	// Schedule overrides the reaction's acceptance schedule.
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

// atRisk reports whether the story can lose its controller: then the
// controller keeps a write-ahead journal, and plans load-balanced — the
// solved weights are state a successor must reproduce.
func (sc Scenario) atRisk() bool {
	return sc.Replicas > 0 || sc.Schedule != nil && slices.ContainsFunc(sc.Schedule.Events, controllerFault)
}

func controllerFault(ev faultinject.Event) bool {
	return ev.Kind == faultinject.KindLeaderKill || ev.Kind == faultinject.KindControllerRestart
}

// schedule resolves the scenario's fault script over the bed and checks
// that it addresses the bed's own nodes.
func (sc Scenario) schedule(b *faultBed) (*faultinject.Schedule, error) {
	if s := sc.Schedule; s != nil {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		for _, ev := range s.Events {
			if !controllerFault(ev) && b.Nodes[ev.Target] == nil {
				return nil, fmt.Errorf("experiments: schedule event %q addresses a node outside the bed", ev)
			}
		}
		return s, nil
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
	b.Pipe, b.Nodes, _, err = b.Ctl.Deploy(controller.PipelineOptions{}, nil)
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

// Result reports one backend's run of a scenario: the substrate's final
// Totals, and what the story made of them. Fields a story has no use for
// stay zero.
type Result struct {
	// Substrate is the backend's name, "sim" or "live".
	Substrate string
	Seed      int64
	Replicas  int
	Totals
	// DeliveredPreFault / DeliveredPostFault split deliveries around the
	// first fault.
	DeliveredPreFault, DeliveredPostFault int64
	// Resumed: what the faults interrupted went on — deliveries after the
	// last fault that took a device down, when there is a workload; the
	// same plan at the next epoch, when a controller took over.
	Resumed bool
	// PushesDuring counts management pushes issued after the first fault:
	// zero is the zero-round-trip claim of a LivenessOnly scenario.
	PushesDuring int64
	// ConvergeUS is the time from the last fault event to the last
	// completed (verified, rolled-out) repair.
	ConvergeUS int64
	// Repairs counts completed plan repairs, RepairedUS stamps the last;
	// Degraded counts repair attempts aborted because a function had no
	// live provider left.
	Repairs, Degraded int
	RepairedUS        int64
	// VerifyOK: the final plan passes every internal/verify invariant.
	// Converged: the run settled — a leader's plan rolled out and InSync,
	// verified and, after a dataplane fault under Repair, from a completed
	// repair.
	VerifyOK, Converged bool

	// FirstLeader/FirstTerm identify the controller the first rollout went
	// through, FinalLeader/FinalTerm the one that led at the end; PromotedUS
	// is when that one won.
	FirstLeader, FinalLeader int
	FirstTerm, FinalTerm     uint64
	PromotedUS               int64
	// PushAttempts/PushFailures are the availability prober's counters (a
	// replica group's stories): one journaled push per tick through
	// whichever replica leads; ticks with no live leader fail.
	PushAttempts, PushFailures int64
	// EpochBefore is the epoch of the first rollout, EpochAfter the one the
	// last successor's rollout landed on. Both stay zero on virtual time
	// without a replica group: there is no management channel to number.
	EpochBefore, EpochAfter uint64
	// Records counts the journal records the final leader replayed; Torn
	// reports a truncated tail (none expected in a clean kill).
	Records int
	Torn    bool
	// ExportIdentical: every successor's restored controller exported,
	// byte for byte, the plan of the last rollout before it.
	ExportIdentical bool
	// StaleRejected: the first leader's term-stamped output was refused
	// after its deposition (a standby's frame fence without a management
	// channel; the server's self-gate AND an agent's fence with one).
	// StaleWhy says what the check saw when it was not.
	StaleRejected bool
	StaleWhy      string
}

// control holds the controller that currently leads, and is what both of
// the story's reactions go through: a health transition repairs through
// it, a leadership change replaces it.
type control struct {
	sub Substrate
	bed *faultBed
	sc  Scenario

	// mu serializes the reactions and guards everything below. A reaction
	// can hold it for seconds (a rollout awaiting a wedged device), so
	// nothing the fault schedule runs may wait on it.
	mu sync.Mutex
	Plane
	lead   Lead // whose plane that is; N is 0 before the first report
	rolled bool // the plane's whole plan is out
	// successions counts the leaders that restored a predecessor's plan and
	// rolled it out.
	successions int
	// down is the health view, kept across leaders: each new one is brought
	// up to it. meas is the measurement every plan is solved over (nil: the
	// story's strategy takes none).
	down map[topo.NodeID]bool
	meas controller.Measurements
	// exported is the plan the last completed rollout left, as exportBytes
	// renders it: what a successor must restore.
	exported []byte
	res      Result
	err      error
}

// onLead restores a controller from what its journal kept — the first
// leader has nothing to restore and makes the history instead — and rolls
// its plan out whole: the leader's management endpoint holds no base yet.
func (c *control) onLead(l Lead) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil || l.N <= c.lead.N {
		return
	}
	c.Plane, c.lead, c.rolled = c.bed.Plane, l, false
	if l.Journal != nil {
		ctl := c.bed.newController()
		if err := journaled(ctl.ResumeJournal(l.State, l.Journal)); errors.Is(err, errDeposed) {
			// Voted out or killed before it could resume: the successor's
			// report redoes it, as for a rollout that finds it deposed.
			return
		} else if err != nil {
			c.err = fmt.Errorf("experiments: replica %d taking over at term %d: %w", l.ID, l.Term, err)
			return
		}
		c.Plane = Plane{Ctl: ctl, Pipe: ctl.NewPipeline(controller.PipelineOptions{})}
		if c.exported == nil {
			if err := c.history(); errors.Is(err, errDeposed) {
				return // deposed meanwhile: the successor makes the history
			} else if err != nil {
				c.err = err
			}
		} else if after, err := exportBytes(c.Plane); err != nil {
			c.err = err
		} else if !bytes.Equal(c.exported, after) {
			c.res.ExportIdentical = false
		}
	}
	if c.err == nil {
		c.reconcile(true)
	}
}

// onHealth records the transition and repairs through whoever leads.
func (c *control) onHealth(id topo.NodeID, down bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !slices.Contains(c.bed.Dep.MBNodes, id) {
		return // routers and proxies carry no function; nothing to repair
	}
	c.down[id] = down
	if c.err == nil && c.rolled {
		c.reconcile(false)
	}
}

// probe is the availability prober's tick: an epoch heartbeat, fenced and
// quorum-acked like any rollout, that touches no node.
func (c *control) probe() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.res.PushAttempts++
	if !c.rolled || c.sub.Rollout(c.Plane, &controller.PlanUpdate{}) != nil {
		c.res.PushFailures++
	}
}

// reconcile brings the leading controller up to the health view,
// recompiles the verified plan and rolls it out: the deltas after a
// health transition, the whole plan under a new leader. Four outcomes are
// expected and absorbed; anything else fails the run.
func (c *control) reconcile(whole bool) {
	repairing, failed := !whole, c.Ctl.Failed()
	for _, id := range c.bed.Dep.MBNodes {
		if c.down[id] != slices.Contains(failed, id) {
			if err := journaled(c.Ctl.MarkFailed(id, c.down[id])); errors.Is(err, errDeposed) {
				c.rolled = false // the successor's report redoes it
				return
			} else if err != nil {
				c.err = err
				return
			}
			c.Pipe.NodeChanged(id)
			repairing = true
		}
	}
	var upd *controller.PlanUpdate
	var err error
	if repairing {
		upd, err = c.Pipe.Recompute(c.meas)
		err = journaled(err)
		if errors.Is(err, controller.ErrNoLiveProvider) {
			c.res.Degraded++
			return
		}
	}
	if whole {
		upd = nil
	}
	if err == nil {
		err = c.sub.Rollout(c.Plane, upd)
	}
	switch {
	case errors.Is(err, errDeposed):
		// Voted out or killed meanwhile: the successor's report redoes it.
		c.rolled = false
	case err == nil, errors.Is(err, mgmt.ErrCommitStraggler):
		// A commit straggler is a device that died between the fault and
		// its detection: its agent staged the plan, then could not apply
		// it. The plan is decided all the same; the next health
		// transition plans around the death.
		c.rolledOut(repairing)
	case abortedPrepare(err) && !whole:
		// No node applied anything and the pipeline rolled back: the next
		// health transition repairs from the plan the fleet still runs.
	default:
		c.err = fmt.Errorf("experiments: rollout under replica %d, term %d: %w", c.lead.ID, c.lead.Term, err)
	}
}

// rolledOut books a completed rollout.
func (c *control) rolledOut(repaired bool) {
	t := c.sub.Totals()
	if repaired {
		c.res.Repairs++
		c.res.RepairedUS = c.sub.NowUS()
	}
	if !c.rolled {
		c.rolled = true
		c.res.FinalLeader, c.res.FinalTerm, c.res.PromotedUS = c.lead.ID, c.lead.Term, c.lead.AtUS
		c.res.Records, c.res.Torn = c.lead.State.Records, c.lead.State.Torn
		if c.exported == nil {
			c.res.FirstLeader, c.res.FirstTerm, c.res.EpochBefore = c.lead.ID, c.lead.Term, t.Epoch
		} else {
			c.res.EpochAfter = t.Epoch
			c.successions++
		}
	}
	if c.lead.Journal != nil {
		c.exported, c.err = exportBytes(c.Plane)
	}
}

// settled: the plan of whoever leads now is out and, where the story
// waits for one, a repair has completed.
func (c *control) settled(t Totals, repaired bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err != nil || c.rolled && t.Lead == c.lead.N && (!repaired || c.res.Repairs > 0)
}

// abortedPrepare reports a rollout no node applied because one of them
// could not be reached or refused to stage it.
func abortedPrepare(err error) bool {
	var refused *mgmt.RefusedError
	return errors.As(err, &refused) || errors.Is(err, mgmt.ErrAckTimeout) ||
		errors.Is(err, mgmt.ErrNotConnected) || errors.Is(err, mgmt.ErrConnClosed)
}

// Run plays one scenario on one backend.
func Run(on Backend, sc Scenario) (*Result, error) {
	strategy, dir := enforce.HotPotato, ""
	if sc.atRisk() {
		strategy = enforce.LoadBalanced
		var err error
		if dir, err = os.MkdirTemp("", "sdme-journal-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir) //nolint:errcheck // best-effort temp cleanup
	}
	bed, err := newFaultBed(sc.Seed, strategy)
	if err != nil {
		return nil, err
	}
	// Resolved before a substrate owns the nodes: it reads their configs.
	sched, err := sc.schedule(bed)
	if err != nil {
		return nil, err
	}
	sub, err := on.newSubstrate(bed.Site, sc, dir)
	if err != nil {
		return nil, err
	}
	defer sub.Close()
	ctl := &control{sub: sub, bed: bed, sc: sc, down: make(map[topo.NodeID]bool)}
	ctl.res = Result{Substrate: on.name, Seed: sc.Seed, Replicas: sc.Replicas, ExportIdentical: true}
	if sc.Reaction == Repair {
		sub.OnHealth(ctl.onHealth)
	}
	sub.OnLead(ctl.onLead)
	if !sub.Await(awaitUS, func() bool { return ctl.settled(sub.Totals(), false) }) {
		return nil, fmt.Errorf("experiments: no controller rolled a first plan out within %dus", int64(awaitUS))
	}
	stopProbe := func() {}
	if sc.Replicas > 0 {
		stopProbe = sub.Every(on.leaseUS/4, ctl.probe)
	}
	defer stopProbe()
	flows := make([]netaddr.FiveTuple, sc.Flows)
	for i := range flows {
		flows[i] = bedFlow(i)
	}
	if err := sub.Offer(flows, sc.PacketsPerFlow); err != nil {
		return nil, err
	}

	// All are written by the schedule's replay only and read after Play
	// returns. The replay never waits on the reactions' lock: a repair can
	// be waiting for the very unwedge the schedule has yet to fire.
	var atFirst, atDown *Totals // at the first fault; at the last that took a device down
	var lastFaultUS int64
	var applyErr error
	sub.Play(sched, func(ev faultinject.Event) {
		t := sub.Totals()
		if atFirst == nil {
			atFirst = &t
		}
		if ev.Kind == faultinject.KindCrash || ev.Kind == faultinject.KindWedge {
			atDown = &t
		}
		lastFaultUS = sub.NowUS()
		applyErr = errors.Join(applyErr, sub.Apply(ev))
	})
	switch {
	case applyErr != nil:
		return nil, applyErr
	case atFirst == nil:
		return nil, fmt.Errorf("experiments: empty fault schedule")
	}
	repairs := atDown != nil && sc.Reaction == Repair
	resumed := func(t Totals) bool { return atDown == nil || len(flows) == 0 || t.Delivered > atDown.Delivered }
	// Settled: the plan of whoever leads is out and acked, and where a
	// device went down deliveries have resumed, after a repair or over the
	// backups.
	settled := sub.Await(awaitUS, func() bool {
		t := sub.Totals()
		return ctl.settled(t, repairs) && t.InSync && resumed(t) &&
			(atDown == nil || repairs || t.Failovers > 0 && t.Delivered > atFirst.Delivered+int64(len(flows)))
	})
	stopProbe()
	sub.Drain()

	t := sub.Totals()
	ctl.mu.Lock()
	defer ctl.mu.Unlock()
	if ctl.err != nil {
		return nil, ctl.err
	}
	res := &ctl.res
	res.Totals = t
	res.DeliveredPreFault = atFirst.Delivered
	res.DeliveredPostFault = t.Delivered - atFirst.Delivered
	res.PushesDuring = t.Pushes - atFirst.Pushes
	res.VerifyOK = len(ctl.Ctl.VerifyPlan(ctl.Pipe.Plan())) == 0
	if res.RepairedUS > lastFaultUS {
		res.ConvergeUS = res.RepairedUS - lastFaultUS
	}
	res.Converged = settled && res.VerifyOK && (!repairs || res.Repairs > 0)
	res.Resumed = resumed(t) && (ctl.successions == 0 ||
		res.ExportIdentical && (res.EpochBefore == 0 || res.EpochAfter > res.EpochBefore))
	if sc.Replicas > 0 && res.FinalLeader != res.FirstLeader {
		if res.StaleWhy, err = sub.StaleRefused(res.FirstLeader, res.FirstTerm); err != nil {
			return nil, err
		}
		res.StaleRejected = res.StaleWhy == ""
	}
	return res, nil
}

// RecoveryTable is results/recovery.csv: one row per backend.
func RecoveryTable(rs []Result) *Table {
	t := NewTable("substrate", "seed", "injected", "delivered", "dropped_down", "converge_us",
		"repairs", "degraded", "reconnects", "final_epoch", "verify_ok", "converged")
	for _, r := range rs {
		t.Add(r.Substrate, r.Seed, r.Injected, r.Delivered, r.DroppedDown, r.ConvergeUS,
			r.Repairs, r.Degraded, r.Reconnects, r.Epoch, r.VerifyOK, r.Converged)
	}
	return t
}
