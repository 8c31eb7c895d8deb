package experiments

// Survivability experiments for the three-layer failover/recovery
// subsystem:
//
//   - RunSimFailover / RunLiveFailover measure LOCAL fast failover: a
//     middlebox dies and flows must resume via the pre-installed backup
//     candidates (M_x^e ranks beyond the primary) with ZERO controller
//     round-trips — the management push counters stay flat across the
//     failover window, because the dataplane's liveness view diverts
//     selection by itself and the purge of pinned soft state forces
//     re-establishment through a live provider.
//
//   - RunSimRestart / RunLiveRestart measure controller crash recovery:
//     the controller journals its mutable planning state (journal.go),
//     is killed, and a restarted controller replays the journal, resumes
//     at the next epoch, and re-derives a byte-identical exported plan.
//
// Both run on both substrates so the discrete-event results (exact,
// deterministic) anchor the live results (real sockets, wall clocks).

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/live"
	"sdme/internal/mgmt"
	"sdme/internal/netaddr"
	"sdme/internal/ospf"
	"sdme/internal/packet"
	"sdme/internal/policy"
	"sdme/internal/sim"
	"sdme/internal/topo"
)

// FailoverConfig parameterizes one fast-failover run.
type FailoverConfig struct {
	// Seed drives topology construction.
	Seed int64
	// KillUS is when the victim middlebox dies (default 30ms).
	KillUS int64
	// Flows, PacketsPerFlow, GapUS size the workload (defaults 40×200,
	// 500µs — the recovery experiments' workload).
	Flows, PacketsPerFlow int
	GapUS                 int64
}

func (c *FailoverConfig) fill() {
	if c.KillUS == 0 {
		c.KillUS = 30_000
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

// FailoverResult reports one substrate's fast-failover run.
type FailoverResult struct {
	// Substrate is "sim" or "live".
	Substrate string
	Seed      int64
	// Victim is the killed middlebox.
	Victim topo.NodeID
	// Injected / Delivered count workload packets.
	Injected, Delivered int64
	// DeliveredPreKill / DeliveredPostKill split deliveries around the
	// kill instant; Resumed is DeliveredPostKill > 0.
	DeliveredPreKill, DeliveredPostKill int64
	Resumed                             bool
	// Failovers counts dataplane diversions to a backup candidate;
	// Invalidated counts purged pinned soft-state entries.
	Failovers, Invalidated int64
	// PushesDuring counts management config pushes issued between the
	// kill and the end of the run — the zero-round-trip claim (live
	// substrate; the sim substrate has no management channel).
	PushesDuring int64
}

// failoverVictim picks the middlebox whose death exercises failover the
// hardest: the primary (rank-0) firewall candidate of subnet 1's proxy.
func failoverVictim(b *recoveryBed) (topo.NodeID, error) {
	proxy, ok := b.dep.ProxyFor(1)
	if !ok {
		return topo.InvalidNode, fmt.Errorf("experiments: no proxy for subnet 1")
	}
	cands := b.nodes[proxy].Config().Candidates[policy.FuncFW]
	if len(cands) < 2 {
		return topo.InvalidNode, fmt.Errorf("experiments: proxy %v has %d firewall candidates, need a backup", proxy, len(cands))
	}
	return cands[0], nil
}

// RunSimFailover kills the primary firewall mid-run with NO controller
// reaction scheduled: every delivery after the kill rode the
// pre-installed backup candidates through the nodes' local liveness
// view. Virtual time makes the pre/post split exact.
func RunSimFailover(cfg FailoverConfig) (*FailoverResult, error) {
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
	victim, err := failoverVictim(bed)
	if err != nil {
		return nil, err
	}
	res := &FailoverResult{Substrate: "sim", Seed: cfg.Seed, Victim: victim}
	nw.Engine.After(cfg.KillUS, func() {
		res.DeliveredPreKill = nw.Stats().Delivered
		nw.SetNodeDown(victim, true)
	})
	nw.Run(0)

	st := nw.Stats()
	res.Injected = st.PacketsInjected
	res.Delivered = st.Delivered
	res.DeliveredPostKill = st.Delivered - res.DeliveredPreKill
	res.Resumed = res.DeliveredPostKill > 0
	for _, n := range bed.nodes {
		res.Failovers += n.Counters.Failovers
		res.Invalidated += n.Counters.Invalidated
	}
	return res, nil
}

// RunLiveFailover is the same scenario over real sockets: the health
// monitor feeds the per-node liveness view (Runtime.SetProviderDown) and
// nothing touches the controller or the management channel — the server's
// push counters are snapshotted at the kill and must not move.
func RunLiveFailover(cfg FailoverConfig) (*FailoverResult, error) {
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

	reg := rt.NewRegistry()
	server, err := mgmt.NewServer("127.0.0.1:0", nil)
	if err != nil {
		return nil, err
	}
	defer server.Close()
	server.SetMetrics(reg)
	pushes := reg.Counter(mgmt.MetricPushes)
	attempts := reg.Counter(mgmt.MetricPushAttempts)

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
	pushPol := mgmt.RetryPolicy{Attempts: 4, PerAttempt: 2 * time.Second, Backoff: 25 * time.Millisecond}
	if err := rolloutPlan(server, bed.ctl, bed.pipe, pushPol); err != nil {
		return nil, fmt.Errorf("experiments: initial rollout: %w", err)
	}

	// The monitor feeds ONLY the dataplane liveness view. No repair, no
	// re-push: recovery is the dataplane's own job here.
	mon := rt.NewHealthMonitor(10*time.Millisecond, 2,
		func(id topo.NodeID) { rt.SetProviderDown(id, true) },
		func(id topo.NodeID) { rt.SetProviderDown(id, false) })
	mon.Start()
	defer mon.Stop()

	victim, err := failoverVictim(bed)
	if err != nil {
		return nil, err
	}
	res := &FailoverResult{Substrate: "live", Seed: cfg.Seed, Victim: victim}

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

	time.Sleep(time.Duration(cfg.KillUS) * time.Microsecond)
	res.DeliveredPreKill = int64(sink.Received())
	pushesAtKill := pushes.Value() + attempts.Value()
	devices[victim].Stop()

	// Wait for the monitor to report the death and the dataplane to
	// divert: at least one failover and post-kill deliveries.
	failovers := func() int64 {
		var total int64
		for _, dev := range devices {
			total += dev.Counters().Failovers
		}
		return total
	}
	live.WaitUntil(10*time.Second, func() bool {
		return failovers() > 0 && int64(sink.Received()) > res.DeliveredPreKill+int64(cfg.Flows)
	})
	close(stopTraffic)
	trafficWG.Wait()
	time.Sleep(50 * time.Millisecond) // drain in-flight packets

	res.Injected = injected.Load()
	res.Delivered = int64(sink.Received())
	res.DeliveredPostKill = res.Delivered - res.DeliveredPreKill
	res.Resumed = res.DeliveredPostKill > 0
	res.Failovers = failovers()
	for _, dev := range devices {
		res.Invalidated += dev.Counters().Invalidated
	}
	res.PushesDuring = pushes.Value() + attempts.Value() - pushesAtKill
	return res, nil
}

// RestartConfig parameterizes one controller kill/restart run.
type RestartConfig struct {
	// Seed drives topology construction.
	Seed int64
	// JournalPath overrides where the journal lives (default: a fresh
	// file in the OS temp dir, removed afterwards).
	JournalPath string
}

// RestartResult reports one substrate's kill/restart run.
type RestartResult struct {
	// Substrate is "sim" or "live".
	Substrate string
	Seed      int64
	// Records counts intact journal records replayed; Torn reports a
	// truncated tail (none expected in a clean kill).
	Records int
	Torn    bool
	// EpochBefore is the epoch high-water the journal recorded before the
	// kill; EpochAfter is the epoch the restarted controller's first
	// re-push landed on. Resumed means EpochAfter > EpochBefore (the
	// restart minted the NEXT epoch, it did not reuse or regress one).
	// The sim substrate has no management channel, so both stay zero and
	// Resumed is judged by ExportIdentical alone.
	EpochBefore, EpochAfter uint64
	Resumed                 bool
	// ExportIdentical: the restarted controller's exported plan is
	// byte-identical to the pre-kill export.
	ExportIdentical bool
	// Converged: every agent acked the restarted controller's epoch
	// (live substrate; sim is vacuously true).
	Converged bool
	// Reconnects counts agent re-dials to the restarted server (live).
	Reconnects int64
}

// newRestartBed is the recovery bed re-planned for load balancing, so
// the restart story has a solved weight plan to carry across the crash.
func newRestartBed(seed int64) (*recoveryBed, error) {
	bed, err := newRecoveryBed(seed)
	if err != nil {
		return nil, err
	}
	// newRecoveryBed builds an HP controller; swap in an LB one over the
	// same deployment.
	bed.ctl = controller.New(bed.dep, bed.ap, bed.tbl, restartOpts(seed))
	bed.pipe, bed.nodes, _, err = Deploy(bed.ctl, controller.PipelineOptions{}, nil)
	if err != nil {
		return nil, err
	}
	return bed, nil
}

// restartDemands is the synthetic measurement workload the LB solve runs
// on — fixed, so the pre-kill and post-restart plans have the same input.
func restartDemands() []enforce.FlowDemand {
	var demands []enforce.FlowDemand
	for i := 0; i < 40; i++ {
		demands = append(demands, enforce.FlowDemand{Tuple: recoveryFlow(i), Packets: int64(100 + i)})
	}
	return demands
}

// restartOpts mirrors newRestartBed's controller options; the restarted
// controller must be built with the SAME static inputs or the journal's
// fingerprint check refuses the replay.
func restartOpts(seed int64) controller.Options {
	return controller.Options{
		Strategy: enforce.LoadBalanced,
		K:        map[policy.FuncType]int{policy.FuncFW: 2, policy.FuncIDS: 2},
		HashSeed: uint64(seed),
		Verify:   true,
	}
}

// restartMeasurements is restartDemands as the proxies would report it.
func restartMeasurements(bed *recoveryBed) controller.Measurements {
	return controller.MeasurementsFromFlows(bed.dep, bed.tbl, restartDemands())
}

// solveThenFail is the history a restarted or promoted controller must
// reproduce: solve the LB plan (journals the weights), lose a firewall
// (journals the failed set), repair (journals the re-solved weights).
func solveThenFail(bed *recoveryBed, ctl *controller.Controller, pipe *controller.Pipeline) error {
	meas := restartMeasurements(bed)
	if _, err := pipe.Recompute(meas); err != nil {
		return err
	}
	if err := ctl.MarkFailed(bed.fw[0], true); err != nil {
		return err
	}
	pipe.NodeChanged(bed.fw[0])
	_, err := pipe.Recompute(meas)
	return err
}

// exportBytes renders a plan as the configuration export of a fresh
// build from it, as indented JSON. Both the pre-kill and post-restart
// exports go through this one path, so byte equality means state
// equality.
func exportBytes(ctl *controller.Controller, plan *controller.Plan) ([]byte, error) {
	nodes, err := ctl.BuildNodesFromPlan(plan)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := ctl.ExportConfig(nodes).WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// journalPath resolves the configured path or a fresh temp file.
func (c *RestartConfig) journalPath(substrate string) (string, func(), error) {
	if c.JournalPath != "" {
		return c.JournalPath, func() {}, nil
	}
	dir, err := os.MkdirTemp("", "sdme-journal-")
	if err != nil {
		return "", nil, err
	}
	return filepath.Join(dir, substrate+".wal"), func() { _ = os.RemoveAll(dir) }, nil
}

// RunSimRestart exercises the journal without a management channel:
// solve, fail a middlebox, repair, export; kill; replay into a fresh
// controller and compare exports byte for byte.
func RunSimRestart(cfg RestartConfig) (*RestartResult, error) {
	path, cleanup, err := cfg.journalPath("sim")
	if err != nil {
		return nil, err
	}
	defer cleanup()
	bed, err := newRestartBed(cfg.Seed)
	if err != nil {
		return nil, err
	}
	jrnl, err := controller.OpenJournal(path)
	if err != nil {
		return nil, err
	}
	if err := bed.ctl.SetJournal(jrnl); err != nil {
		return nil, err
	}
	// Solve WITH the journal attached so the weight plan is recorded,
	// then take a failure and repair it — the mutations the restart must
	// reproduce.
	if err := solveThenFail(bed, bed.ctl, bed.pipe); err != nil {
		return nil, err
	}
	before, err := exportBytes(bed.ctl, bed.pipe.Plan())
	if err != nil {
		return nil, err
	}
	if err := jrnl.Close(); err != nil { // the "kill": no state survives but the file
		return nil, err
	}

	st, err := controller.ReplayJournal(path)
	if err != nil {
		return nil, err
	}
	ctl2 := controller.New(bed.dep, bed.ap, bed.tbl, restartOpts(cfg.Seed))
	if err := ctl2.RestoreFromJournal(st); err != nil {
		return nil, err
	}
	after, err := exportBytes(ctl2, ctl2.NewPipeline(controller.PipelineOptions{}).Plan())
	if err != nil {
		return nil, err
	}
	res := &RestartResult{
		Substrate: "sim", Seed: cfg.Seed,
		Records: st.Records, Torn: st.Torn,
		ExportIdentical: bytes.Equal(before, after),
	}
	res.Resumed = res.ExportIdentical
	res.Converged = true // no channel to converge; the export is the proof
	return res, nil
}

// RunLiveRestart kills the controller AND its management server under
// live agents: the restarted pair replays the journal, resumes the epoch
// sequence past the journal's high-water, re-pushes idempotently through
// the reconnecting agents, and must export the identical plan.
func RunLiveRestart(cfg RestartConfig) (*RestartResult, error) {
	path, cleanup, err := cfg.journalPath("live")
	if err != nil {
		return nil, err
	}
	defer cleanup()
	bed, err := newRestartBed(cfg.Seed)
	if err != nil {
		return nil, err
	}
	jrnl, err := controller.OpenJournal(path)
	if err != nil {
		return nil, err
	}
	if err := bed.ctl.SetJournal(jrnl); err != nil {
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

	server, err := mgmt.NewServer("127.0.0.1:0", nil)
	if err != nil {
		return nil, err
	}
	addr := server.Addr()
	agents := make(map[topo.NodeID]*mgmt.Agent, len(nodeIDs))
	defer func() {
		for _, a := range agents {
			a.Close()
		}
	}()
	for _, id := range nodeIDs {
		agent, err := mgmt.NewAgentWith(devices[id], addr, mgmt.AgentOptions{
			BackoffMin: 5 * time.Millisecond,
			BackoffMax: 100 * time.Millisecond,
		})
		if err != nil {
			server.Close()
			return nil, err
		}
		agents[id] = agent
	}
	if !server.WaitConnected(5*time.Second, nodeIDs...) {
		server.Close()
		return nil, fmt.Errorf("experiments: agents did not connect: %v", server.Connected())
	}

	// Pre-kill history: solve (journals weights), fail a middlebox
	// (journals the failed set), repair, roll the resulting plan out, log
	// the epoch.
	pushPol := mgmt.RetryPolicy{Attempts: 4, PerAttempt: 2 * time.Second, Backoff: 25 * time.Millisecond}
	err = solveThenFail(bed, bed.ctl, bed.pipe)
	if err == nil {
		err = rolloutPlan(server, bed.ctl, bed.pipe, pushPol)
	}
	if err == nil {
		err = jrnl.LogEpoch(server.Epoch(), 0)
	}
	if err != nil {
		server.Close()
		return nil, fmt.Errorf("experiments: pre-kill history: %w", err)
	}
	before, err := exportBytes(bed.ctl, bed.pipe.Plan())
	if err != nil {
		server.Close()
		return nil, err
	}

	// The kill: server gone, journal handle gone, controller forgotten.
	server.Close()
	if err := jrnl.Close(); err != nil {
		return nil, err
	}

	// The restart: replay, restore, resume the epoch sequence, re-listen
	// on the same address so the surviving agents' reconnect loops find
	// the new server, and roll the restored plan out.
	st, err := controller.ReplayJournal(path)
	if err != nil {
		return nil, err
	}
	ctl2 := controller.New(bed.dep, bed.ap, bed.tbl, restartOpts(cfg.Seed))
	if err := ctl2.RestoreFromJournal(st); err != nil {
		return nil, err
	}
	jrnl2, err := controller.OpenJournal(path)
	if err != nil {
		return nil, err
	}
	defer jrnl2.Close() //nolint:errcheck // best-effort on the result path
	if err := ctl2.SetJournal(jrnl2); err != nil {
		return nil, err
	}
	var server2 *mgmt.Server
	// The old listener's port can linger briefly; retry the bind.
	for i := 0; i < 50; i++ {
		server2, err = mgmt.NewServer(addr, nil)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		return nil, fmt.Errorf("experiments: rebind %s: %w", addr, err)
	}
	defer server2.Close()
	server2.ResumeEpoch(st.Epoch)
	if !server2.WaitConnected(10*time.Second, nodeIDs...) {
		return nil, fmt.Errorf("experiments: agents did not rejoin: %v", server2.Connected())
	}

	// The restored pipeline starts from the journaled plan; the new server
	// holds no base, so the plan goes out whole, at the next epoch.
	pipe2 := ctl2.NewPipeline(controller.PipelineOptions{})
	if err := rolloutPlan(server2, ctl2, pipe2, pushPol); err != nil {
		return nil, fmt.Errorf("experiments: post-restart rollout: %w", err)
	}
	if err := jrnl2.LogEpoch(server2.Epoch(), 0); err != nil {
		return nil, err
	}
	after, err := exportBytes(ctl2, pipe2.Plan())
	if err != nil {
		return nil, err
	}

	res := &RestartResult{
		Substrate: "live", Seed: cfg.Seed,
		Records: st.Records, Torn: st.Torn,
		EpochBefore:     st.Epoch,
		EpochAfter:      server2.Epoch(),
		ExportIdentical: bytes.Equal(before, after),
		Converged:       server2.Converged(nodeIDs...),
	}
	res.Resumed = res.EpochAfter > res.EpochBefore
	for _, a := range agents {
		res.Reconnects += a.Stats().Reconnects
	}
	return res, nil
}

// RunFailoverExperiments runs fast-failover on both substrates.
func RunFailoverExperiments(cfg FailoverConfig) ([]FailoverResult, error) {
	simRes, err := RunSimFailover(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: sim failover: %w", err)
	}
	liveRes, err := RunLiveFailover(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: live failover: %w", err)
	}
	return []FailoverResult{*simRes, *liveRes}, nil
}

// RunRestartExperiments runs kill/restart recovery on both substrates.
func RunRestartExperiments(cfg RestartConfig) ([]RestartResult, error) {
	simRes, err := RunSimRestart(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: sim restart: %w", err)
	}
	liveRes, err := RunLiveRestart(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: live restart: %w", err)
	}
	return []RestartResult{*simRes, *liveRes}, nil
}

// WriteSurvivabilityCSV emits failover and restart results in one file
// (results/failover.csv), one row per substrate per experiment; columns
// not applicable to an experiment are left empty.
func WriteSurvivabilityCSV(w io.Writer, fo []FailoverResult, rs []RestartResult) error {
	if _, err := fmt.Fprintln(w, "experiment,substrate,seed,injected,delivered,delivered_post_kill,failovers,invalidated,pushes_during,resumed,records,epoch_before,epoch_after,export_identical,converged"); err != nil {
		return err
	}
	for _, r := range fo {
		if _, err := fmt.Fprintf(w, "failover,%s,%d,%d,%d,%d,%d,%d,%d,%t,,,,,\n",
			r.Substrate, r.Seed, r.Injected, r.Delivered, r.DeliveredPostKill,
			r.Failovers, r.Invalidated, r.PushesDuring, r.Resumed); err != nil {
			return err
		}
	}
	for _, r := range rs {
		if _, err := fmt.Fprintf(w, "restart,%s,%d,,,,,,,%t,%d,%d,%d,%t,%t\n",
			r.Substrate, r.Seed, r.Resumed, r.Records, r.EpochBefore, r.EpochAfter,
			r.ExportIdentical, r.Converged); err != nil {
			return err
		}
	}
	return nil
}

// SurvivabilityMarkdown renders both experiment families as tables.
func SurvivabilityMarkdown(fo []FailoverResult, rs []RestartResult) string {
	var b strings.Builder
	b.WriteString("| substrate | injected | delivered | post-kill | failovers | purged | pushes during | resumed |\n")
	b.WriteString("|---|---:|---:|---:|---:|---:|---:|---|\n")
	for _, r := range fo {
		fmt.Fprintf(&b, "| %s | %d | %d | %d | %d | %d | %d | %t |\n",
			r.Substrate, r.Injected, r.Delivered, r.DeliveredPostKill,
			r.Failovers, r.Invalidated, r.PushesDuring, r.Resumed)
	}
	b.WriteString("\n| substrate | journal records | epoch before → after | export identical | converged |\n")
	b.WriteString("|---|---:|---|---|---|\n")
	for _, r := range rs {
		fmt.Fprintf(&b, "| %s | %d | %d → %d | %t | %t |\n",
			r.Substrate, r.Records, r.EpochBefore, r.EpochAfter,
			r.ExportIdentical, r.Converged)
	}
	return b.String()
}
