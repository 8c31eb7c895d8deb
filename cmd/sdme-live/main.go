// Command sdme-live demonstrates the complete architecture over real
// sockets on loopback:
//
//   - every proxy and middlebox runs as a goroutine with its own UDP
//     socket (the dataplane);
//   - a management server (the controller) pushes each node's
//     configuration over TCP through per-device agents (§III-A);
//   - proxies report traffic measurements back over the same channel
//     (§III-C), the controller re-solves the load-balancing LP and rolls
//     the reweight deltas out without disturbing flow state;
//   - IP-over-IP tunnels carry first packets, §III-E control messages
//     flip flows to label switching.
//
// Usage:
//
//	sdme-live [-seed 20] [-packets 10] [-labels=true]
//	          [-metrics-addr 127.0.0.1:9090] [-hold 30s] [-peers 3]
//
// With -metrics-addr the process serves the unified observability
// surface over HTTP: Prometheus text exposition on /metrics (dataplane,
// fabric, management-channel and controller families) and the standard
// net/http/pprof endpoints under /debug/pprof/. -hold keeps the process
// alive after the demo so the endpoints can be scraped interactively.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/experiments"
	"sdme/internal/live"
	"sdme/internal/metrics"
	"sdme/internal/mgmt"
	"sdme/internal/netaddr"
	"sdme/internal/packet"
	"sdme/internal/policy"
	"sdme/internal/route"
	"sdme/internal/topo"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sdme-live:", err)
		os.Exit(1)
	}
}

func run() error {
	seed := flag.Int64("seed", 20, "deterministic seed")
	packets := flag.Int("packets", 10, "packets to send on the demo flow")
	labels := flag.Bool("labels", true, "enable §III-E label switching")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics and /debug/pprof/ on this address (empty: disabled)")
	traceOneIn := flag.Uint64("trace-one-in", 1, "runtime packet tracing sample rate (1 = every flow, 0 = off)")
	hold := flag.Duration("hold", 0, "keep serving the metrics endpoint this long after the demo")
	journalPath := flag.String("journal", "", "controller write-ahead journal: replayed on start if present, appended during the run (empty: disabled)")
	peers := flag.Int("peers", 0, "controller replicas; >0 runs the replicated-HA takeover demo over real sockets instead of the single-controller demo")
	workers := flag.Int("workers", 0, "dataplane workers per device (0 = GOMAXPROCS)")
	shards := flag.Int("shards", 16, "flow/label table shards per device (local tuning, survives config pushes)")
	flag.Parse()

	if *peers > 0 {
		return runLiveHA(*peers, *seed)
	}

	rng := rand.New(rand.NewSource(*seed))
	g := topo.Campus(topo.CampusConfig{Gateways: 2, CoreRouters: 4, EdgeRouters: 2, WithProxies: true}, rng)
	dep, err := enforce.NewDeployment(g)
	if err != nil {
		return err
	}
	cores := g.NodesOfKind(topo.KindCoreRouter)
	dep.AddMiddlebox(cores[0], "fw1", policy.FuncFW)
	dep.AddMiddlebox(cores[2], "fw2", policy.FuncFW)
	dep.AddMiddlebox(cores[1], "ids1", policy.FuncIDS)

	tbl := policy.NewTable()
	d := policy.NewDescriptor()
	d.DstPort = netaddr.SinglePort(80)
	tbl.Add(d, policy.ActionList{policy.FuncFW, policy.FuncIDS})

	ap := route.NewAllPairs(g, route.RouterTransitOnly(g))
	ctl := controller.New(dep, ap, tbl, controller.Options{
		Strategy:       enforce.LoadBalanced,
		K:              map[policy.FuncType]int{policy.FuncFW: 2, policy.FuncIDS: 1},
		LabelSwitching: *labels,
	})

	// Crash recovery: an existing journal is replayed into the controller
	// (failed set, weight plan, epoch high-water) before any plan is
	// computed, then reopened for appending so this run's state survives
	// the next restart. The pipeline then starts from the journaled plan.
	var resumeEpoch uint64
	if *journalPath != "" {
		st, err := ctl.AttachJournal(*journalPath)
		if err != nil {
			return err
		}
		defer ctl.Journal().Close()
		if st.Records > 0 {
			resumeEpoch = st.Epoch
			fmt.Printf("journal: replayed %d records (epoch %d, %d failed middleboxes, torn tail: %v)\n",
				st.Records, st.Epoch, len(st.Failed), st.Torn)
		}
	}

	pipe := ctl.NewPipeline(controller.PipelineOptions{})
	if pipe.Plan() == nil {
		if _, err := pipe.Recompute(nil); err != nil {
			return err
		}
	} else if pipe.Plan().Weights != nil {
		fmt.Printf("journal: recovered LB weight plan (λ=%.0f)\n", pipe.Plan().Lambda)
	}
	nodes, err := ctl.BuildNodesFromPlan(pipe.Plan())
	if err != nil {
		return err
	}

	// Management server: collects measurement reports as they arrive.
	var measMu sync.Mutex
	meas := make(controller.Measurements)
	server, err := mgmt.NewServer("127.0.0.1:0", func(_ topo.NodeID, rows []mgmt.MeasureRow) {
		measMu.Lock()
		defer measMu.Unlock()
		for _, r := range rows {
			meas[enforce.MeasKey{PolicyID: r.PolicyID, SrcSubnet: r.SrcSubnet, DstSubnet: r.DstSubnet}] += r.Packets
		}
	})
	if err != nil {
		return err
	}
	defer server.Close()
	server.ResumeEpoch(resumeEpoch)
	fmt.Printf("controller management server on %s\n\n", server.Addr())

	// Dataplane devices + their management agents.
	fleet := experiments.NewFleet()
	defer fleet.Close()
	rt := fleet.Runtime
	rt.SetDefaultWorkers(*workers)

	// Observability: one registry on the runtime's wall clock, shared by
	// the fabric, the dataplane nodes, the management channel and the
	// controller; plus a runtime packet tracer sampling the demo flows.
	reg := rt.NewRegistry()
	rt.AttachMetrics(reg)
	server.SetMetrics(reg)
	ctl.SetMetrics(reg, rt.NowUS)
	tracer := enforce.NewRuntimeTracer(0, *traceOneIn, uint64(*seed))
	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		defer ln.Close()
		go func() { _ = http.Serve(ln, metrics.ServeMux(reg)) }()
		fmt.Printf("observability on http://%s/metrics and /debug/pprof/\n\n", ln.Addr())
	}

	// Wire form of every node's plan, taken before the devices own the nodes.
	fallback := experiments.FullConfigs(nodes)
	for _, n := range nodes {
		// Attach before the fleet takes the nodes: the device goroutine
		// owns a node from then on. Shard tuning is local (never on the
		// wire), so it is set here and re-applied by every subsequent
		// config install.
		n.SetMetrics(reg)
		n.SetTracer(tracer)
		if *shards > 0 {
			n.SetShardTuning(*shards, *shards)
			if err := n.Install(n.Config()); err != nil {
				return err
			}
		}
	}
	if err := fleet.Add(nodes); err != nil {
		return err
	}
	if err := fleet.Connect(server.Addr(), mgmt.AgentOptions{ReportEvery: 50 * time.Millisecond, Metrics: reg}); err != nil {
		return err
	}
	devices, ids := fleet.Devices, fleet.IDs
	for _, id := range ids {
		fmt.Printf("  %-12s dataplane %-14s agent connected over TCP\n", g.Node(id).Name, nodes[id].Addr)
	}
	if !server.WaitConnected(3*time.Second, ids...) {
		return fmt.Errorf("agents failed to connect")
	}

	// Roll the plan out over the wire: a delta against the empty base,
	// carried by each node's full configuration. The epoch-fenced
	// prepare/commit batch guarantees the fleet never mixes plan
	// generations: every node stages, then all flip atomically (a single
	// refusal rolls the whole batch back).
	pushPol := mgmt.RetryPolicy{Attempts: 3, PerAttempt: 3 * time.Second, Backoff: 50 * time.Millisecond}
	// Write-ahead: the epoch a push will mint is fenced in the journal
	// first, so a restart never re-mints an epoch an agent has seen.
	fence := func() error {
		if j := ctl.Journal(); j != nil {
			return j.LogEpoch(server.Epoch()+1, 0)
		}
		return nil
	}
	if err := fence(); err != nil {
		return err
	}
	initial, _ := controller.DiffPlans(nil, pipe.Plan())
	epoch, err := pipe.Rollout(server, initial, fallback, pushPol)
	if err != nil {
		return err
	}
	fmt.Printf("\nconfiguration committed on %d nodes via prepare/commit (epoch %d)\n", len(nodes), epoch)

	sink, err := rt.AddSink(topo.HostAddr(2, 1))
	if err != nil {
		return err
	}
	proxyID, _ := dep.ProxyFor(1)
	proxyAddr := dep.AddrOf(proxyID)
	flow := netaddr.FiveTuple{
		Src: topo.HostAddr(1, 1), Dst: topo.HostAddr(2, 1),
		SrcPort: 40000, DstPort: 80, Proto: netaddr.ProtoTCP,
	}
	// Static plan under the configuration the packets will actually run
	// under (the later LB re-solve changes the weights, so tracing after
	// it would compare against a different plan).
	planned, plannedErr := enforce.TraceFlow(nodes, dep, ap, flow)
	fmt.Printf("\nsending %d packets on flow %v\n", *packets, flow)

	if err := rt.Inject(proxyAddr, packet.New(flow, 64)); err != nil {
		return err
	}
	if *labels {
		ok := live.WaitUntil(3*time.Second, func() bool {
			return devices[proxyID].Counters().ControlRx >= 1
		})
		fmt.Printf("label-switch control message received by proxy: %v\n", ok)
	}
	for i := 1; i < *packets; i++ {
		if err := rt.Inject(proxyAddr, packet.New(flow, 64)); err != nil {
			return err
		}
	}
	if !live.WaitUntil(5*time.Second, func() bool { return sink.Received() >= *packets }) {
		return fmt.Errorf("sink received only %d of %d packets", sink.Received(), *packets)
	}
	fmt.Printf("sink received %d packets\n", sink.Received())

	// Wait for the proxy's measurement report, close the control loop.
	if !live.WaitUntil(3*time.Second, func() bool {
		measMu.Lock()
		defer measMu.Unlock()
		var total int64
		for _, v := range meas {
			total += v
		}
		return total >= int64(*packets)
	}) {
		return fmt.Errorf("measurements never reached the controller")
	}
	measMu.Lock()
	snapshot := make(controller.Measurements, len(meas))
	for k, v := range meas {
		snapshot[k] = v
	}
	measMu.Unlock()
	upd, err := pipe.Recompute(snapshot)
	if err != nil {
		return err
	}
	if err := fence(); err != nil {
		return err
	}
	if _, err := pipe.Rollout(server, upd.Deltas, nil, pushPol); err != nil {
		return err
	}
	fmt.Printf("\n§III-C loop closed: proxies reported %d packets, controller solved λ=%.0f\n",
		sum(snapshot), upd.Plan.Lambda)
	fmt.Printf("and rolled the reweight deltas out to %d nodes over the management channel.\n", len(upd.Deltas))
	if j := ctl.Journal(); j != nil {
		fmt.Printf("journal: %d records (%d bytes) on disk\n", j.Records(), j.Size())
	}

	fmt.Println("\nper-device dataplane counters:")
	for id, dev := range devices {
		c := dev.Counters()
		fmt.Printf("  %-12s in=%-4d load=%-4d tunnelTx=%-4d labelTx=%-4d classif=%-3d controlTx=%d controlRx=%d failovers=%d invalidated=%d\n",
			g.Node(id).Name, c.PacketsIn, c.Load, c.TunnelTx, c.LabelTx, c.Classified, c.ControlTx, c.ControlRx, c.Failovers, c.Invalidated)
	}

	// Management-channel health: on a clean loopback run every agent
	// holds its first connection (0 reconnects) and has acked the latest
	// epoch pushed to it.
	var reconnects, applies int64
	for _, a := range fleet.Agents {
		st := a.Stats()
		reconnects += st.Reconnects
		applies += st.Applies
	}
	fmt.Printf("\nmanagement channel: epoch %d, converged %v, %d reconnects, %d configs applied\n",
		server.Epoch(), server.Converged(ids...), reconnects, applies)

	// Runtime trace vs static plan: the observability layer's core claim
	// is that the sampled per-packet hop records reproduce the verified
	// plan exactly.
	rtr := tracer.RuntimeTrace(flow)
	if len(rtr.Hops) > 0 && plannedErr == nil {
		fmt.Printf("\nruntime trace of %v (%d hop records sampled):\n", flow, tracer.Total())
		for _, h := range rtr.Hops[:min(len(rtr.Hops), len(planned.Hops))] {
			fmt.Printf("  %-12s ran %v\n", g.Node(h.Node).Name, h.Func)
		}
		// Every packet of the flow must walk the planned chain. Packets
		// pipeline, so hop records of different packets interleave; the
		// invariant that survives interleaving is per-(node, func) counts:
		// each planned hop seen exactly once per packet, nothing else.
		type hopKey struct {
			node topo.NodeID
			f    policy.FuncType
		}
		got := make(map[hopKey]int)
		for _, h := range rtr.Hops {
			got[hopKey{h.Node, h.Func}]++
		}
		n := len(rtr.Hops) / max(len(planned.Hops), 1)
		conforms := len(planned.Hops) > 0 && len(rtr.Hops) == n*len(planned.Hops)
		for _, p := range planned.Hops {
			if got[hopKey{p.Node, p.Func}] != n {
				conforms = false
			}
			delete(got, hopKey{p.Node, p.Func})
		}
		conforms = conforms && len(got) == 0
		fmt.Printf("matches static plan across %d packets: %v\n", n, conforms)
	}

	if *metricsAddr != "" && *hold > 0 {
		fmt.Printf("\nholding %v for metric scrapes...\n", *hold)
		time.Sleep(*hold)
	}
	return nil
}

// runLiveHA runs the replicated-controller takeover scenario over real
// sockets: N replicas elect a leader, the fleet converges on its plan,
// the leader is partitioned away mid-run, and a standby takes over with
// the agents re-homing via rotation and NotLeader redirects (DESIGN §11).
func runLiveHA(peers int, seed int64) error {
	res, err := experiments.Run(experiments.Live, experiments.Takeover(seed, peers, 1, 0))
	if err != nil {
		return err
	}
	fmt.Printf("controller HA over real sockets: promotion trace %s\n\n%s", res.Trace, experiments.HATable([]experiments.Result{*res}).Markdown())
	if !res.ExportIdentical || !res.StaleRejected || !res.Resumed || !res.Converged {
		return fmt.Errorf("HA takeover degraded (see above)")
	}
	return nil
}

func sum(m controller.Measurements) int64 {
	var total int64
	for _, v := range m {
		total += v
	}
	return total
}
