package experiments

// Recovery-convergence experiments: the dependability story of the
// paper, measured. A scripted fault schedule (internal/faultinject)
// crashes middleboxes, wedges a device and drops a management
// connection while traffic flows; the control plane detects the
// failures, recomputes candidate sets without the dead boxes, verifies
// the repaired plan (internal/verify) and re-pushes it — and we report
// what the outage cost (packets blackholed while the plan was stale)
// and how long convergence took. The same schedule drives both the
// discrete-event simulator (virtual time, exact drop accounting) and
// the live UDP runtime (real sockets, the mgmt channel's reconnect and
// epoch machinery doing the healing).

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/faultinject"
	"sdme/internal/live"
	"sdme/internal/mgmt"
	"sdme/internal/netaddr"
	"sdme/internal/ospf"
	"sdme/internal/packet"
	"sdme/internal/policy"
	"sdme/internal/route"
	"sdme/internal/sim"
	"sdme/internal/topo"
	"sdme/internal/verify"
)

// RecoveryConfig parameterizes one recovery-convergence run.
type RecoveryConfig struct {
	// Seed drives topology construction and any randomized choice.
	Seed int64
	// DetectUS is the failure-detection latency the sim substrate models
	// (the live substrate detects with a real health monitor). Default
	// 20ms.
	DetectUS int64
	// Flows and PacketsPerFlow size the background workload; GapUS is
	// the inter-packet gap. Defaults: 40 flows × 200 packets, 500µs.
	Flows, PacketsPerFlow int
	GapUS                 int64
	// Schedule overrides the default acceptance schedule (crash two
	// middleboxes, drop one proxy's management connection, wedge and
	// release a third middlebox). Targets must exist in the bed's
	// deployment; use DefaultRecoverySchedule to build one.
	Schedule *faultinject.Schedule
}

func (c *RecoveryConfig) fill() {
	if c.DetectUS == 0 {
		c.DetectUS = 20_000
	}
	if c.Flows == 0 {
		c.Flows = 40
	}
	if c.PacketsPerFlow == 0 {
		c.PacketsPerFlow = 200
	}
	if c.GapUS == 0 {
		c.GapUS = 500
	}
}

// RecoveryResult reports one substrate's run of a fault schedule.
type RecoveryResult struct {
	// Substrate is "sim" or "live".
	Substrate string
	Seed      int64
	// Injected counts workload packets offered; Delivered those that
	// reached their destination.
	Injected, Delivered int64
	// DroppedDown counts packets lost to the outage: blackholed at a
	// down device (sim, exact) or offered-minus-delivered (live).
	DroppedDown int64
	// ConvergeUS is the time from the last fault event to the last
	// completed (verified, acked) repair.
	ConvergeUS int64
	// Repairs counts completed plan repairs; Degraded counts repair
	// attempts aborted because a function had no live provider left.
	Repairs, Degraded int
	// Reconnects / FinalEpoch report the management channel's healing
	// (live substrate only).
	Reconnects int64
	FinalEpoch uint64
	// VerifyOK: the final plan passes every internal/verify invariant.
	// Converged: every live node acked the latest epoch (live substrate;
	// the sim substrate converges by construction when Repairs > 0).
	VerifyOK, Converged bool
}

// recoveryBed is the fixed small deployment both substrates run: three
// firewalls and two IDS boxes on a campus, web traffic crossing two
// subnets, so the acceptance schedule (two crashes, one wedge) always
// leaves every function a live provider.
type recoveryBed struct {
	g     *topo.Graph
	dep   *enforce.Deployment
	tbl   *policy.Table
	ap    *route.AllPairs
	ctl   *controller.Controller
	pipe  *controller.Pipeline
	nodes map[topo.NodeID]*enforce.Node
	fw    []topo.NodeID // fw1 fw2 fw3
	ids   []topo.NodeID // ids1 ids2
}

func newRecoveryBed(seed int64) (*recoveryBed, error) {
	rng := rand.New(rand.NewSource(seed))
	g := topo.Campus(topo.CampusConfig{Gateways: 2, CoreRouters: 6, EdgeRouters: 3, WithProxies: true}, rng)
	dep, err := enforce.NewDeployment(g)
	if err != nil {
		return nil, err
	}
	cores := g.NodesOfKind(topo.KindCoreRouter)
	if len(cores) < 5 {
		return nil, fmt.Errorf("experiments: recovery bed needs 5 core routers, topology has %d", len(cores))
	}
	b := &recoveryBed{g: g, dep: dep, tbl: policy.NewTable()}
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
	b.ctl = controller.New(dep, b.ap, b.tbl, controller.Options{
		Strategy: enforce.HotPotato,
		K:        map[policy.FuncType]int{policy.FuncFW: 2, policy.FuncIDS: 2},
		HashSeed: uint64(seed),
		Verify:   true,
	})
	b.pipe, b.nodes, _, err = Deploy(b.ctl, controller.PipelineOptions{}, nil)
	if err != nil {
		return nil, err
	}
	return b, nil
}

// FullConfigs renders every node's installed configuration in wire form:
// the fallback map a rollout needs for nodes the server holds no base for.
func FullConfigs(nodes map[topo.NodeID]*enforce.Node) map[topo.NodeID]mgmt.ConfigDTO {
	out := make(map[topo.NodeID]mgmt.ConfigDTO, len(nodes))
	for id, n := range nodes {
		out[id] = mgmt.ConfigToDTO(0, n.Config())
	}
	return out
}

// rolloutPlan pushes the pipeline's whole current plan to a fleet whose
// server holds no base yet: a delta against the empty plan, carried by
// the full-configuration fallback.
func rolloutPlan(srv *mgmt.Server, ctl *controller.Controller, pipe *controller.Pipeline, pol mgmt.RetryPolicy) error {
	nodes, err := ctl.BuildNodesFromPlan(pipe.Plan())
	if err != nil {
		return err
	}
	deltas, _ := controller.DiffPlans(nil, pipe.Plan())
	_, err = pipe.Rollout(srv, deltas, FullConfigs(nodes), pol)
	return err
}

// DefaultRecoverySchedule is the acceptance scenario: crash two
// middleboxes (one firewall, one IDS), drop the management connection
// of one proxy, and wedge a second firewall for 60ms. Every function
// keeps a live provider throughout, so the repaired plan always exists.
func defaultRecoverySchedule(b *recoveryBed, seed int64) *faultinject.Schedule {
	proxy, _ := b.dep.ProxyFor(1)
	return &faultinject.Schedule{
		Seed: seed,
		Events: []faultinject.Event{
			{AtUS: 20_000, Kind: faultinject.KindCrash, Target: b.fw[0]},
			{AtUS: 30_000, Kind: faultinject.KindCrash, Target: b.ids[0]},
			{AtUS: 40_000, Kind: faultinject.KindConnDrop, Target: proxy},
			{AtUS: 50_000, Kind: faultinject.KindWedge, Target: b.fw[1]},
			{AtUS: 110_000, Kind: faultinject.KindUnwedge, Target: b.fw[1]},
		},
	}
}

// recoveryFlow builds the i-th workload five-tuple: web traffic from
// subnet 1 hosts to subnet 2 hosts and back.
func recoveryFlow(i int) netaddr.FiveTuple {
	src, dst := 1, 2
	if i%2 == 1 {
		src, dst = 2, 1
	}
	return netaddr.FiveTuple{
		Src: topo.HostAddr(src, 1+i/2), Dst: topo.HostAddr(dst, 100+i/2),
		SrcPort: uint16(40000 + i), DstPort: 80, Proto: netaddr.ProtoTCP,
	}
}

// RunSimRecovery replays the fault schedule against the discrete-event
// simulator: crashes and wedges blackhole packets (Stats.DroppedDown)
// until a modeled detection delay triggers MarkFailed + a verified
// Recompute. Virtual time makes the convergence measurement exact and
// deterministic.
func RunSimRecovery(cfg RecoveryConfig) (*RecoveryResult, error) {
	cfg.fill()
	bed, err := newRecoveryBed(cfg.Seed)
	if err != nil {
		return nil, err
	}
	dom := ospf.NewDomain(bed.g)
	dom.Converge()
	nw := sim.New(bed.g, dom, bed.dep, bed.nodes)

	for i := 0; i < cfg.Flows; i++ {
		if err := nw.InjectFlow(recoveryFlow(i), cfg.PacketsPerFlow, 256, int64(i)*97, cfg.GapUS); err != nil {
			return nil, err
		}
	}

	res := &RecoveryResult{Substrate: "sim", Seed: cfg.Seed}
	var lastFaultUS, repairedUS int64
	var repairErr error
	// repair is the controller's reaction, scheduled DetectUS after the
	// fault: record the state change, recompile the (verified) plan, and
	// apply its deltas on every node. The engine is single-threaded, so mutating
	// nodes here is safe.
	repair := func(id topo.NodeID, down bool) {
		if err := bed.ctl.MarkFailed(id, down); err != nil {
			repairErr = err
			return
		}
		bed.pipe.NodeChanged(id)
		upd, err := bed.pipe.Recompute(nil)
		if errors.Is(err, controller.ErrNoLiveProvider) {
			res.Degraded++
			return
		}
		if err == nil {
			err = controller.ApplyDeltas(bed.nodes, upd.Deltas)
		}
		if err != nil {
			repairErr = err
			return
		}
		res.Repairs++
		repairedUS = nw.Engine.Now()
	}
	sched := cfg.Schedule
	if sched == nil {
		sched = defaultRecoverySchedule(bed, cfg.Seed)
	}
	faultinject.DriveSim(sched, nw.Engine, func(ev faultinject.Event) {
		switch ev.Kind {
		case faultinject.KindCrash, faultinject.KindWedge:
			// A wedged device is indistinguishable from a crashed one at
			// the dataplane: both blackhole until repaired.
			nw.SetNodeDown(ev.Target, true)
			lastFaultUS = nw.Engine.Now()
			id := ev.Target
			nw.Engine.After(cfg.DetectUS, func() { repair(id, true) })
		case faultinject.KindRecover, faultinject.KindUnwedge:
			nw.SetNodeDown(ev.Target, false)
			lastFaultUS = nw.Engine.Now()
			id := ev.Target
			nw.Engine.After(cfg.DetectUS, func() { repair(id, false) })
		default:
			// Management-channel faults (conn-drop/delay/ack-loss) have no
			// effect here: the sim substrate models the dataplane; the
			// live substrate exercises the channel.
		}
	})
	nw.Run(0)
	if repairErr != nil {
		return nil, repairErr
	}

	st := nw.Stats()
	res.Injected = st.PacketsInjected
	res.Delivered = st.Delivered
	res.DroppedDown = st.DroppedDown
	if repairedUS > lastFaultUS {
		res.ConvergeUS = repairedUS - lastFaultUS
	}
	res.VerifyOK = len(bed.ctl.VerifyPlan(bed.pipe.Plan())) == 0
	res.Converged = res.Repairs > 0 && res.VerifyOK
	return res, nil
}

// RunLiveRecovery replays the fault schedule against the live UDP
// runtime with the full control plane in the loop: devices configured
// over the management channel, a health monitor detecting crashed and
// wedged devices, and the self-healing channel (reconnect, retries,
// epoch-fenced delta rollouts) carrying the verified repaired plan back
// out. Wall-clock
// nondeterminism makes the numbers approximate; the convergence
// properties (latest epoch acked everywhere, verified plan) are exact.
func RunLiveRecovery(cfg RecoveryConfig) (*RecoveryResult, error) {
	cfg.fill()
	bed, err := newRecoveryBed(cfg.Seed)
	if err != nil {
		return nil, err
	}
	rt := live.NewRuntime()
	defer rt.Close()

	devices := make(map[topo.NodeID]*live.Device, len(bed.nodes))
	var nodeIDs []topo.NodeID
	for id, n := range bed.nodes {
		dev, err := rt.AddDevice(n)
		if err != nil {
			return nil, err
		}
		devices[id] = dev
		nodeIDs = append(nodeIDs, id)
	}
	nodeIDs = topo.SortedIDs(nodeIDs)
	var sinkAddrs []netaddr.Addr
	for i := 0; i < cfg.Flows; i++ {
		sinkAddrs = append(sinkAddrs, recoveryFlow(i).Dst)
	}
	sink, err := rt.AddSink(sinkAddrs...)
	if err != nil {
		return nil, err
	}

	server, err := mgmt.NewServer("127.0.0.1:0", nil)
	if err != nil {
		return nil, err
	}
	defer server.Close()
	agents := make(map[topo.NodeID]*mgmt.Agent, len(nodeIDs))
	defer func() {
		for _, a := range agents {
			a.Close()
		}
	}()
	for _, id := range nodeIDs {
		agent, err := mgmt.NewAgentWith(devices[id], server.Addr(), mgmt.AgentOptions{
			BackoffMin: 5 * time.Millisecond,
			BackoffMax: 100 * time.Millisecond,
		})
		if err != nil {
			return nil, err
		}
		agents[id] = agent
	}
	if !server.WaitConnected(5*time.Second, nodeIDs...) {
		return nil, fmt.Errorf("experiments: agents did not connect: %v", server.Connected())
	}

	// Initial plan over the wire.
	pushPol := mgmt.RetryPolicy{Attempts: 4, PerAttempt: 2 * time.Second, Backoff: 25 * time.Millisecond}
	server.SetRepushPolicy(pushPol)
	if err := rolloutPlan(server, bed.ctl, bed.pipe, pushPol); err != nil {
		return nil, fmt.Errorf("experiments: initial rollout: %w", err)
	}

	res := &RecoveryResult{Substrate: "live", Seed: cfg.Seed}
	var mu sync.Mutex // guards ctl, res counters, convergedAtUS below
	var convergedAtUS int64
	// repair reacts to health transitions: mark, recompile the verified
	// plan, and roll its deltas out. Both callbacks fire from the monitor
	// goroutine, so repairs are serialized.
	repair := func(id topo.NodeID, down bool) {
		mu.Lock()
		defer mu.Unlock()
		if err := bed.ctl.MarkFailed(id, down); err != nil {
			return // routers/proxies are not middleboxes; nothing to repair
		}
		bed.pipe.NodeChanged(id)
		upd, err := bed.pipe.Recompute(nil)
		if errors.Is(err, controller.ErrNoLiveProvider) {
			res.Degraded++
			return
		}
		if err != nil {
			return
		}
		// A refused commit means the device died between the fault and
		// its detection: its agent staged the plan and then acked "device
		// stopped". The plan is decided all the same; the monitor reports
		// the death within a probe interval and the next repair plans
		// around it — not a failure of this repair. Anything else (an
		// aborted prepare) rolled the pipeline back and leaves the repair
		// to the next health event.
		_, err = bed.pipe.Rollout(server, upd.Deltas, nil, pushPol)
		var refused *mgmt.RefusedError
		if err == nil || (errors.Is(err, mgmt.ErrCommitStraggler) && errors.As(err, &refused)) {
			res.Repairs++
			convergedAtUS = rt.NowUS()
		}
	}
	mon := rt.NewHealthMonitor(10*time.Millisecond, 2,
		func(id topo.NodeID) { repair(id, true) },
		func(id topo.NodeID) { repair(id, false) })
	mon.Start()
	defer mon.Stop()

	// Background workload for the whole schedule window.
	var injected atomic.Int64
	stopTraffic := make(chan struct{})
	var trafficWG sync.WaitGroup
	trafficWG.Add(1)
	go func() {
		defer trafficWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stopTraffic:
				return
			default:
			}
			ft := recoveryFlow(i % cfg.Flows)
			srcSub := bed.dep.SubnetIndexOf(ft.Src)
			proxyID, ok := bed.dep.ProxyFor(srcSub)
			if !ok {
				return
			}
			if err := rt.Inject(bed.dep.AddrOf(proxyID), packet.New(ft, 64)); err != nil {
				return
			}
			injected.Add(1)
			time.Sleep(time.Duration(cfg.GapUS) * time.Microsecond)
		}
	}()

	// Replay the schedule against the runtime and the channel.
	sched := cfg.Schedule
	if sched == nil {
		sched = defaultRecoverySchedule(bed, cfg.Seed)
	}
	// The driver's bookkeeping gets its own lock: it must never wait on
	// mu, which a repair can hold for seconds while awaiting an ack from
	// a wedged device — an ack only the unwedge event can unblock.
	var fmu sync.Mutex
	crashed := make(map[topo.NodeID]bool)
	releases := make(map[topo.NodeID]func())
	var lastFaultUS atomic.Int64
	driver := faultinject.NewLiveDriver(sched, func(ev faultinject.Event) {
		lastFaultUS.Store(rt.NowUS())
		switch ev.Kind {
		case faultinject.KindCrash:
			fmu.Lock()
			crashed[ev.Target] = true
			fmu.Unlock()
			devices[ev.Target].Stop()
		case faultinject.KindWedge:
			fmu.Lock()
			releases[ev.Target] = devices[ev.Target].Wedge()
			fmu.Unlock()
		case faultinject.KindUnwedge:
			fmu.Lock()
			release := releases[ev.Target]
			delete(releases, ev.Target)
			fmu.Unlock()
			if release != nil {
				release()
			}
		case faultinject.KindConnDrop:
			server.DropConn(ev.Target)
		case faultinject.KindPartition:
			// A network partition between a node pair, seen from the
			// controller: both ends lose their management connection at
			// once. The agents' reconnect machinery heals both sides.
			server.DropConn(ev.Target)
			server.DropConn(topo.NodeID(ev.Param))
		}
	})
	driver.Start()
	driver.Wait()

	// Convergence: every surviving node runs the latest epoch pushed to
	// it, and the plan passes verification.
	liveIDs := func() []topo.NodeID {
		fmu.Lock()
		defer fmu.Unlock()
		out := make([]topo.NodeID, 0, len(nodeIDs))
		for _, id := range nodeIDs {
			if !crashed[id] {
				out = append(out, id)
			}
		}
		return out
	}
	converged := live.WaitUntil(15*time.Second, func() bool {
		ids := liveIDs()
		if !server.Converged(ids...) {
			return false
		}
		have := make(map[topo.NodeID]bool)
		for _, id := range server.Connected() {
			have[id] = true
		}
		for _, id := range ids {
			if !have[id] {
				return false
			}
		}
		return true
	})
	close(stopTraffic)
	trafficWG.Wait()
	time.Sleep(50 * time.Millisecond) // drain in-flight dataplane packets

	mu.Lock()
	res.Converged = converged && res.Repairs > 0
	res.VerifyOK = verify.AsError(bed.ctl.VerifyPlan(bed.pipe.Plan())) == nil
	if last := lastFaultUS.Load(); convergedAtUS > last {
		res.ConvergeUS = convergedAtUS - last
	}
	mu.Unlock()
	res.Injected = injected.Load()
	res.Delivered = int64(sink.Received())
	if res.Injected > res.Delivered {
		res.DroppedDown = res.Injected - res.Delivered
	}
	for _, a := range agents {
		res.Reconnects += a.Stats().Reconnects
	}
	res.FinalEpoch = server.Epoch()
	return res, nil
}

// RunRecoveryExperiments runs the acceptance schedule on both
// substrates and returns one result per substrate.
func RunRecoveryExperiments(cfg RecoveryConfig) ([]RecoveryResult, error) {
	simRes, err := RunSimRecovery(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: sim recovery: %w", err)
	}
	liveRes, err := RunLiveRecovery(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: live recovery: %w", err)
	}
	return []RecoveryResult{*simRes, *liveRes}, nil
}

// WriteRecoveryCSV emits recovery results, one row per substrate.
func WriteRecoveryCSV(w io.Writer, rs []RecoveryResult) error {
	if _, err := fmt.Fprintln(w, "substrate,seed,injected,delivered,dropped_down,converge_us,repairs,degraded,reconnects,final_epoch,verify_ok,converged"); err != nil {
		return err
	}
	for _, r := range rs {
		if _, err := fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%t,%t\n",
			r.Substrate, r.Seed, r.Injected, r.Delivered, r.DroppedDown,
			r.ConvergeUS, r.Repairs, r.Degraded, r.Reconnects, r.FinalEpoch,
			r.VerifyOK, r.Converged); err != nil {
			return err
		}
	}
	return nil
}

// RecoveryMarkdown renders recovery results as a table.
func RecoveryMarkdown(rs []RecoveryResult) string {
	var b strings.Builder
	b.WriteString("| substrate | injected | delivered | dropped (outage) | converge (ms) | repairs | reconnects | final epoch | verified | converged |\n")
	b.WriteString("|---|---:|---:|---:|---:|---:|---:|---:|---|---|\n")
	for _, r := range rs {
		fmt.Fprintf(&b, "| %s | %d | %d | %d | %.1f | %d | %d | %d | %t | %t |\n",
			r.Substrate, r.Injected, r.Delivered, r.DroppedDown,
			float64(r.ConvergeUS)/1000, r.Repairs, r.Reconnects, r.FinalEpoch,
			r.VerifyOK, r.Converged)
	}
	return b.String()
}
