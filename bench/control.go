package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/live"
	"sdme/internal/metrics"
	"sdme/internal/mgmt"
	"sdme/internal/netaddr"
	"sdme/internal/policy"
	"sdme/internal/topo"
	"sdme/internal/verify"
	"sdme/internal/workload"
)

const (
	// rebalanceEvery makes every tenth step a rebalance: a 9:1 mix.
	rebalanceEvery = 10
	// controlWarmSteps are discarded; they include one rebalance.
	controlWarmSteps = rebalanceEvery
	// controlCountSteps is the fixed range of traced steps the counted
	// metrics (pushed bytes, lambda) cover, so they repeat exactly for a
	// seed however many steps the host fits into the measured time.
	controlCountSteps = 100
	// planRing is how many recent plans the ladder replays.
	planRing = 12
)

var pushPolicy = mgmt.RetryPolicy{Attempts: 2, PerAttempt: 5 * time.Second}

// controlBed is the §III-C loop over the wire: the campus bed's controller
// with a journal, and one live.Device with an mgmt.Agent per node, all
// configured only through the management channel.
type controlBed struct {
	*bed
	dir     string
	journal *controller.Journal
	rt      *live.Runtime
	server  *mgmt.Server
	agents  []*mgmt.Agent
	devices map[topo.NodeID]*live.Device
	ids     []topo.NodeID
	flows   []workload.Flow
	edits   int
	undo    []func() // reversals of the current edit block, last first
	plans   []*controller.Plan
}

func (b *controlBed) close() {
	for _, a := range b.agents {
		a.Close()
	}
	if b.server != nil {
		b.server.Close()
	}
	if b.rt != nil {
		b.rt.Close()
	}
	if b.journal != nil {
		_ = b.journal.Close() // scratch file, removed next
	}
	_ = os.RemoveAll(b.dir)
}

func setupControl(cfg runConfig) (*controlBed, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	tmpRoot := cfg.resultsDir
	cb, err := newCampusBed(cfg.seed, cfg.policiesPerClass(), controller.Options{})
	if err != nil {
		return nil, st, err
	}
	b := &controlBed{bed: cb, devices: make(map[topo.NodeID]*live.Device)}
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, st, err
	}
	if b.dir, err = os.MkdirTemp(tmpRoot, "journal-"); err != nil {
		return nil, st, err
	}
	fail := func(err error) (*controlBed, setupTimes, error) {
		b.close()
		return nil, st, err
	}
	if b.journal, err = controller.OpenJournal(filepath.Join(b.dir, "controller.journal")); err != nil {
		return fail(err)
	}
	if err := b.ctl.SetJournal(b.journal); err != nil {
		return fail(err)
	}
	st.bed = time.Since(t0)

	t0 = time.Now()
	b.flows = b.initialDemands(b.classed)
	upd, err := b.pipe.Recompute(b.measurements(b.flows))
	if err != nil {
		return fail(fmt.Errorf("initial solve: %w", err))
	}
	st.solve = time.Since(t0)

	// Rollout: every node becomes a one-worker device with an agent, and
	// the first plan goes out through the same delta 2PC as every later
	// one, as the full-config fallback (the server has no base yet).
	t0 = time.Now()
	nodes, err := b.ctl.BuildNodesFromPlan(upd.Plan)
	if err != nil {
		return fail(err)
	}
	b.rt = live.NewRuntime()
	b.rt.SetDefaultWorkers(1)
	if b.server, err = mgmt.NewServer("127.0.0.1:0", nil); err != nil {
		return fail(err)
	}
	for id := range nodes {
		b.ids = append(b.ids, id)
	}
	b.ids = topo.SortedIDs(b.ids)
	fallback := make(map[topo.NodeID]mgmt.ConfigDTO, len(nodes))
	for _, id := range b.ids {
		dev, err := b.rt.AddDevice(nodes[id])
		if err != nil {
			return fail(err)
		}
		b.devices[id] = dev
		agent, err := mgmt.NewAgent(dev, b.server.Addr(), 0)
		if err != nil {
			return fail(err)
		}
		b.agents = append(b.agents, agent)
		fallback[id] = mgmt.ConfigToDTO(0, nodes[id].Config())
	}
	if !b.server.WaitConnected(10*time.Second, b.ids...) {
		return fail(fmt.Errorf("agents did not connect: %d of %d", len(b.server.Connected()), len(b.ids)))
	}
	deltas, _ := controller.DiffPlans(nil, upd.Plan)
	if _, err := b.server.PushAllDelta2PC(deltas, fallback, pushPolicy); err != nil {
		return fail(fmt.Errorf("initial rollout: %w", err))
	}
	st.rollout = time.Since(t0)
	return b, st, nil
}

// servicePorts are the "arbitrary service" ports added policies draw from.
var servicePorts = []uint16{22, 25, 53, 110, 143, 443, 993, 3306, 5432, 8080}

// editKind is one of the table mutations an operator makes.
type editKind int

const (
	editPort  editKind = iota // widen or narrow a policy's service range
	editChain                 // give a policy another action chain
	editAdd                   // add a policy (its undo removes it)
)

// editBlock is the nine edits between two rebalances: four changes, their
// four reversals in reverse order, and one port-range change that stays.
// Reverting what was changed returns the table to its size and chain mix
// before every rebalance, so the LP a rebalance solves has the same shape
// on every seed and at every point of a run; the seed picks the policies.
var editBlock = [4]editKind{editPort, editChain, editAdd, editChain}

// edit applies the next table mutation and marks it on the pipeline. The
// bed's classed list follows the table, so demand populations are drawn
// over the policies that exist.
func (b *controlBed) edit() {
	slot := b.edits % (2*len(editBlock) + 1)
	b.edits++
	switch {
	case slot < len(editBlock):
		b.undo = append(b.undo, b.apply(editBlock[slot]))
	case slot < 2*len(editBlock):
		last := len(b.undo) - 1
		b.undo[last]()
		b.undo = b.undo[:last]
	default:
		b.apply(editPort)
	}
}

// apply makes one mutation of the given kind and returns its reversal.
func (b *controlBed) apply(kind editKind) (undo func()) {
	rng := b.traffic
	classes := []workload.Class{workload.ManyToOne, workload.OneToMany, workload.OneToOne}
	if kind == editAdd {
		class := classes[rng.Intn(len(classes))]
		cp := workload.ClassedPolicy{Class: class, Service: servicePorts[rng.Intn(len(servicePorts))]}
		subnets := b.dep.NumSubnets()
		d := policy.NewDescriptor()
		switch class {
		case workload.ManyToOne:
			cp.DstSubnet = 1 + rng.Intn(subnets)
			d.Dst = topo.SubnetPrefix(cp.DstSubnet)
		case workload.OneToMany:
			cp.SrcSubnet, cp.Service = 1+rng.Intn(subnets), 80
			d.Src = topo.SubnetPrefix(cp.SrcSubnet)
		case workload.OneToOne:
			cp.SrcSubnet = 1 + rng.Intn(subnets)
			cp.DstSubnet = 1 + rng.Intn(subnets-1)
			if cp.DstSubnet >= cp.SrcSubnet {
				cp.DstSubnet++
			}
			d.Src, d.Dst = topo.SubnetPrefix(cp.SrcSubnet), topo.SubnetPrefix(cp.DstSubnet)
		}
		d.DstPort = netaddr.SinglePort(cp.Service)
		cp.Policy = b.table.Add(d, class.Actions())
		b.classed = append(b.classed, cp)
		id := cp.Policy.ID
		b.pipe.PolicyChanged(id)
		return func() {
			b.table.Remove(id)
			for i := range b.classed {
				if b.classed[i].Policy.ID == id {
					b.classed = append(b.classed[:i], b.classed[i+1:]...)
					break
				}
			}
			b.pipe.PolicyChanged(id)
		}
	}

	p := b.classed[rng.Intn(len(b.classed))].Policy
	d, acts := p.Desc, p.Actions
	if kind == editPort {
		// The range always keeps the service port, so the policy's flows
		// keep matching.
		if d.DstPort.IsSingle() {
			d.DstPort.Hi = d.DstPort.Lo + 1
		} else {
			d.DstPort.Hi = d.DstPort.Lo
		}
	} else {
		for acts.Equal(p.Actions) {
			acts = classes[rng.Intn(len(classes))].Actions()
		}
	}
	b.update(p.ID, d, acts)
	return func() { b.update(p.ID, p.Desc, p.Actions) }
}

// update replaces a policy in the table and in the classed list.
func (b *controlBed) update(id int, d policy.Descriptor, acts policy.ActionList) {
	np := b.table.Update(id, d, acts)
	for i := range b.classed {
		if b.classed[i].Policy.ID == id {
			b.classed[i].Policy = np
		}
	}
	b.pipe.PolicyChanged(id)
}

// stepSample is what one control step measured.
type stepSample struct {
	rebalance       bool
	recompute, push time.Duration
	stats           controller.PlanStats
	nodes           int
	bytes           int64
	lambda          float64
	clamped         int
}

func (s stepSample) total() time.Duration { return s.recompute + s.push }

// step runs one seeded control step and times it from the table mutation
// to PushAllDelta2PC returning. Synthesizing the measurements the proxies
// would report is input preparation and is not timed.
func (b *controlBed) step(n int, rec *recorder, sreg *metrics.Registry) (stepSample, error) {
	s := stepSample{rebalance: n%rebalanceEvery == rebalanceEvery-1}
	var mutate time.Duration
	if s.rebalance {
		b.flows = b.demands()
	} else {
		t0 := time.Now()
		b.edit()
		mutate = time.Since(t0)
	}
	meas := b.measurements(b.flows)
	var bytes0 int64
	if sreg != nil {
		bytes0 = sreg.Counter(mgmt.MetricPushBytesDelta).Value() + sreg.Counter(mgmt.MetricPushBytesFull).Value()
	}

	if rec != nil {
		rec.root(spanRecompute, int64(n), 1)
	}
	t0 := time.Now()
	upd, err := b.pipe.Recompute(meas)
	s.recompute = mutate + time.Since(t0)
	if rec != nil {
		rec.end()
	}
	if err != nil {
		return s, fmt.Errorf("step %d recompute: %w", n, err)
	}

	s.clamped = clampRoundoff(upd.Deltas)

	if rec != nil {
		rec.root(spanPush, int64(n), 1)
	}
	t0 = time.Now()
	_, err = b.server.PushAllDelta2PC(upd.Deltas, nil, pushPolicy)
	s.push = time.Since(t0)
	if rec != nil {
		rec.end()
	}
	if err != nil {
		return s, fmt.Errorf("step %d push: %w", n, err)
	}
	if !b.server.Converged(b.ids...) {
		return s, fmt.Errorf("step %d: fleet not converged at epoch %d", n, b.server.Epoch())
	}
	s.stats, s.nodes, s.lambda = upd.Stats, len(upd.Deltas), upd.Plan.Lambda
	if sreg != nil {
		s.bytes = sreg.Counter(mgmt.MetricPushBytesDelta).Value() + sreg.Counter(mgmt.MetricPushBytesFull).Value() - bytes0
	}
	if rec != nil { // the ladder replays the traced half's last plans
		b.plans = append(b.plans, upd.Plan)
		if len(b.plans) > planRing {
			b.plans = b.plans[1:]
		}
	}
	return s, nil
}

// clampRoundoff zeroes the weights a scoped LP solve leaves a rounding
// error below zero (about -1e-9, once in a few thousand steps). The agents'
// DTO validation refuses any negative weight, the 2PC rolls back, and the
// fleet then stays behind the pipeline's plan for good — a defect this
// benchmark found and may not fix here. The delta's vectors are the plan's
// own slices, so clamping in place keeps plan, delta and fleet identical.
// Anything more negative than round-off is left alone and fails the step.
func clampRoundoff(deltas map[topo.NodeID]enforce.ConfigDelta) int {
	n := 0
	for _, d := range deltas {
		for _, vec := range d.SetWeights {
			for i, w := range vec {
				if w < 0 && w > -1e-6 {
					vec[i] = 0
					n++
				}
			}
		}
	}
	return n
}

// checkEquivalence compares what the devices hold with a from-scratch
// build of the pipeline's current plan.
func (b *controlBed) checkEquivalence() error {
	rebuilt, err := b.ctl.BuildNodesFromPlan(b.pipe.Plan())
	if err != nil {
		return err
	}
	applied := make(map[topo.NodeID]enforce.Config, len(b.devices))
	for id, dev := range b.devices {
		id := id
		if !dev.Do(func(n *enforce.Node) { applied[id] = n.Config() }) {
			return fmt.Errorf("device %v stopped", id)
		}
	}
	full := make(map[topo.NodeID]enforce.Config, len(rebuilt))
	for id, n := range rebuilt {
		full[id] = n.Config()
	}
	if viol := verify.CheckDeltaEquivalence(applied, full); len(viol) > 0 {
		return fmt.Errorf("%d violations, first: %v", len(viol), viol[0])
	}
	return nil
}

// splitSteps separates edits from rebalances.
func splitSteps(steps []stepSample) (edits, rebalances []stepSample) {
	for _, s := range steps {
		if s.rebalance {
			rebalances = append(rebalances, s)
		} else {
			edits = append(edits, s)
		}
	}
	return
}

// sortedMS returns f of every step in milliseconds, ascending.
func sortedMS(steps []stepSample, f func(stepSample) time.Duration) []float64 {
	out := make([]float64, len(steps))
	for i, s := range steps {
		out[i] = float64(f(s).Nanoseconds()) / 1e6
	}
	sort.Float64s(out)
	return out
}

// controlTrace is what the traced half of a control run collected.
type controlTrace struct {
	steps      []stepSample
	tracer     *tracer           // one recorder: the controller loop is one goroutine
	creg, sreg *metrics.Registry // the controller's and the server's
	doCalls    []float64         // Device.Do probe, us
}

func runControl(cfg runConfig) (*result, error) {
	res := newResult("control_loop", cfg)
	var b *controlBed
	setups, err := cfg.repeatSetup(func() (st setupTimes, err error) {
		if b != nil {
			b.close()
		}
		b, st, err = setupControl(cfg)
		return st, err
	})
	if err != nil {
		return nil, err
	}
	defer b.close()
	res.setup(setups)

	n := 0
	var failures int64
	var firstErr error
	run := func(rec *recorder, sreg *metrics.Registry) stepSample {
		s, err := b.step(n, rec, sreg)
		n++
		if err != nil {
			failures++
			if firstErr == nil {
				firstErr = err
			}
		}
		return s
	}
	// A block of steps is nine edits and the rebalance that follows them.
	// At least one block is discarded as warm-up, controlCountSteps steps
	// are traced and two blocks are measured; a smoke run does one each.
	warmSteps, tracedSteps, plainSteps := controlWarmSteps, controlCountSteps, 2*rebalanceEvery
	if cfg.smoke {
		warmSteps, tracedSteps, plainSteps = 0, rebalanceEvery, rebalanceEvery-1
	}
	for n < warmSteps {
		run(nil, nil)
	}

	// The traced half runs first so that its counted metrics cover a
	// fixed step range; the untraced half gives the end-to-end numbers.
	measure := cfg.measure()
	var tr controlTrace
	if cfg.trace {
		measure /= 2
		tr.tracer = newTracer(1)
		rec := tr.tracer.slots[0].rec
		tr.creg, tr.sreg = metrics.NewRegistry(nanosUS), metrics.NewRegistry(nanosUS)
		b.ctl.SetMetrics(tr.creg, nanosUS)
		b.server.SetMetrics(tr.sreg)
		for end := time.Now().Add(measure); time.Now().Before(end) || len(tr.steps) < tracedSteps; {
			tr.steps = append(tr.steps, run(rec, tr.sreg))
			// An idle device answers Do only between its 5 ms read
			// deadlines; every prepare and commit apply pays this.
			rec.root(spanDo, int64(n), 1)
			t0 := time.Now()
			b.devices[b.ids[n%len(b.ids)]].Do(func(*enforce.Node) {})
			tr.doCalls = append(tr.doCalls, float64(time.Since(t0).Nanoseconds())/1e3)
			rec.end()
		}
		b.ctl.SetMetrics(nil, nil)
		b.server.SetMetrics(nil)
	}
	var plain []stepSample
	for end := time.Now().Add(measure); time.Now().Before(end) || len(plain) < plainSteps; {
		plain = append(plain, run(nil, nil))
	}

	all := sortedMS(plain, stepSample.total)
	edits, rebalances := splitSteps(plain)
	editMS, rebalMS := sortedMS(edits, stepSample.total), sortedMS(rebalances, stepSample.total)
	// Steps per second of control time at the median edit and the median
	// rebalance, in the workload's 9:1 mix. Rebalance time has a long
	// tail (p90 is 1.4x the median), which the mean would follow.
	res.E2E["enforced_per_s"] = rebalanceEvery * 1e3 / ((rebalanceEvery-1)*quantile(editMS, 0.50) + quantile(rebalMS, 0.50))
	res.E2E["op_latency_p50_us"] = quantile(all, 0.50) * 1e3
	res.E2E["live_heap_mb"] = heldHeapMB()
	res.samples("op_latency", len(plain))
	res.samples("edit_to_applied", len(edits))
	res.samples("rebalance_to_applied", len(rebalances))
	res.notef("%d steps (%d edits, %d rebalances) measured, 1 controller, %d agents on loopback TCP",
		len(plain), len(edits), len(rebalances), len(b.ids))

	res.Attempted, res.Failed = int64(n), failures
	if failures != 0 {
		res.check("step-failed", fmt.Errorf("%d of %d steps failed or left the fleet unconverged, first: %v", failures, n, firstErr))
	}
	res.check("delta-equivalence", b.checkEquivalence())
	if !b.server.Converged(b.ids...) {
		res.check("converged", fmt.Errorf("server does not see every node on its latest plan"))
	}
	if !cfg.trace {
		return res, nil
	}

	L := res.Layer
	L["bench.failed_share"] = float64(failures) / float64(n)
	L["bench.op_latency_p95_us"] = quantile(all, 0.95) * 1e3
	L["bench.op_latency_p99_us"] = quantile(all, 0.99) * 1e3
	L["controller.edit_to_applied_p50_ms"] = quantile(editMS, 0.50)
	L["controller.edit_to_applied_p95_ms"] = quantile(editMS, 0.95)
	L["controller.rebalance_to_applied_p50_ms"] = quantile(rebalMS, 0.50)
	L["controller.rebalance_to_applied_p90_ms"] = quantile(rebalMS, 0.90)
	var clamped int
	for _, s := range append(tr.steps, plain...) {
		clamped += s.clamped
	}
	L["controller.clamped_weights"] = float64(clamped)
	tr.perLayer(L, quantile(editMS, 0.50))
	if err := b.ladder(L); err != nil {
		return nil, err
	}
	res.samples("live.do_call_us", len(tr.doCalls))
	path, err := tr.tracer.write(cfg.resultsDir, res.Workload, res.Fingerprint)
	if err != nil {
		return nil, err
	}
	res.notef("spans written to %s", path)
	return res, nil
}

// perLayer fills the metrics the traced half gives: stage times from the
// spans' steps, counts over the fixed step range, registry readings.
// plainEditMS is the untraced edit median the tracing overhead is against.
func (tr *controlTrace) perLayer(L map[string]float64, plainEditMS float64) {
	edits, rebalances := splitSteps(tr.steps)
	recompute := func(s stepSample) time.Duration { return s.recompute }
	push := func(s stepSample) time.Duration { return s.push }
	L["bench.trace_overhead_share"] = quantile(sortedMS(edits, stepSample.total), 0.50)/plainEditMS - 1
	L["controller.recompute_edit_ms"] = quantile(sortedMS(edits, recompute), 0.50)
	L["controller.recompute_rebalance_ms"] = quantile(sortedMS(rebalances, recompute), 0.50)
	L["mgmt.push_edit_ms"] = quantile(sortedMS(edits, push), 0.50)
	L["mgmt.push_rebalance_ms"] = quantile(sortedMS(rebalances, push), 0.50)

	var editBytes, rebalBytes, lambdas, dirty, entries, touched []float64
	var solved, scoped float64
	for _, s := range tr.steps[:min(controlCountSteps, len(tr.steps))] {
		if s.rebalance {
			rebalBytes = append(rebalBytes, float64(s.bytes))
			lambdas = append(lambdas, s.lambda)
			continue
		}
		editBytes = append(editBytes, float64(s.bytes))
		entries = append(entries, float64(s.stats.Delta.Total()))
		touched = append(touched, float64(s.nodes))
		if s.stats.Instances > 0 {
			dirty = append(dirty, float64(s.stats.Dirty)/float64(s.stats.Instances))
		}
		if s.stats.Solved {
			solved++
			if !s.stats.FullSolve {
				scoped++
			}
		}
	}
	L["mgmt.pushed_bytes_per_edit"] = mean(editBytes)
	L["mgmt.bytes_per_rebalance"] = mean(rebalBytes)
	L["controller.rebalance_lambda_mean"] = mean(lambdas)
	L["controller.dirty_share"] = mean(dirty)
	L["controller.delta_entries_per_edit"] = mean(entries)
	L["mgmt.nodes_touched_per_edit"] = mean(touched)
	if solved > 0 {
		L["controller.scoped_share"] = scoped / solved
	}
	L["mgmt.delta_fallbacks"] = float64(tr.sreg.Counter(mgmt.MetricDeltaFallbacks).Value())
	L["mgmt.retries"] = float64(tr.sreg.Counter(mgmt.MetricPushRetries).Value())
	if h := tr.creg.Histogram(controller.MetricSolveUS, metrics.LatencyBucketsUS); h.Count() > 0 {
		L["controller.solve_ms"] = float64(h.Sum()) / float64(h.Count()) / 1e3
	}
	L["lp.vars"] = tr.creg.Gauge(controller.MetricLPVars).Value()
	L["lp.iterations"] = tr.creg.Gauge(controller.MetricLPIters).Value()
	L["live.do_call_us"] = mean(tr.doCalls)
}

// nanosUS is the registries' clock: microseconds since the trace epoch.
func nanosUS() int64 { return nanos() / 1e3 }

// ladder replays the run's last plans against the public functions of the
// stages Recompute and PushAllDelta2PC call internally.
func (b *controlBed) ladder(L map[string]float64) error {
	meas := b.measurements(b.flows)
	var compile, diff, encode, apply, appendUS []float64
	scratch, err := controller.OpenJournal(filepath.Join(b.dir, "ladder.journal"))
	if err != nil {
		return err
	}
	defer scratch.Close()
	for i := 0; i+1 < len(b.plans); i++ {
		t0 := time.Now()
		if _, err := b.ctl.CompilePlan(meas, false); err != nil {
			return err
		}
		compile = append(compile, float64(time.Since(t0).Nanoseconds())/1e6)

		old, cur := b.plans[i], b.plans[i+1]
		t0 = time.Now()
		deltas, _ := controller.DiffPlans(old, cur)
		diff = append(diff, float64(time.Since(t0).Nanoseconds())/1e6)

		shadow, err := b.ctl.BuildNodesFromPlan(old)
		if err != nil {
			return err
		}
		for id, d := range deltas {
			t0 = time.Now()
			if _, err := mgmt.EncodeEnvelope(mgmt.TypePrepareDelta, mgmt.DeltaToDTO(0, d)); err != nil {
				return err
			}
			encode = append(encode, float64(time.Since(t0).Nanoseconds())/1e3)
			t0 = time.Now()
			if err := shadow[id].ApplyDelta(d); err != nil {
				return err
			}
			apply = append(apply, float64(time.Since(t0).Nanoseconds())/1e3)
		}

		// The record a solve journals: the plan's whole weight table.
		rec := controller.WeightsRecord{Lambda: cur.Lambda}
		for _, id := range b.ids {
			if w := cur.Weights[id]; len(w) > 0 {
				rec.Nodes = append(rec.Nodes, controller.NodeWeights{Node: int(id), Rows: mgmt.WeightsToDTO(0, w).Weights})
			}
		}
		t0 = time.Now()
		if err := scratch.Append(controller.JournalWeights, rec); err != nil {
			return err
		}
		appendUS = append(appendUS, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	L["controller.compile_ms"] = median(compile)
	L["controller.diff_ms"] = median(diff)
	L["mgmt.encode_us"] = median(encode)
	L["enforce.apply_delta_us"] = median(apply)
	L["controller.journal_append_us"] = median(appendUS)
	return nil
}
