package experiments

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/live"
	"sdme/internal/metrics"
	"sdme/internal/netaddr"
	"sdme/internal/policy"
)

// The paper's promise is that every packet a policy matches traverses its
// whole chain, in order (§III-B, §III-E). Conform holds one backend to it:
// enforced flows cross the dataplane with the registry and a runtime
// tracer attached, and every flow's hops are checked against the static
// plan. Differential holds the two backends to each other on the same
// inputs.

// Conformance is a conformance run's input: a NewBed deployment, the
// next-hop selector, and whether §III-E label switching is on.
type Conformance struct {
	Topology       string
	Seed           int64
	Strategy       enforce.Strategy
	LabelSwitching bool
}

// A run sends conformFlows flows of conformPackets packets each. A flow's
// first packet is tunnelled; the later ones go once its §III-E control
// message has reached the proxy, so with label switching they ride labels.
const (
	conformFlows   = 50
	conformPackets = 3
	conformPayload = 64
	// conformWait bounds each wait for the fleet to settle on wall time.
	conformWait = 5 * time.Second
)

// Reading is what a conformance run read off one backend. Every field is
// exact: the same inputs must give the same reading on either backend.
type Reading struct {
	Backend string
	// Flows are the flows sent, in order. Mismatches describes those whose
	// runtime hops are not conformPackets in-order copies of the plan.
	Flows      []netaddr.FiveTuple
	Mismatches []string
	// Sent and Delivered count data packets; LabelTx and TunnelTx sum the
	// nodes' §III-E transmissions.
	Sent, Delivered   int64
	LabelTx, TunnelTx int64
	// Counters holds every node's counters by node name: a middlebox's
	// Load, and the drops by reason (Dropped by a firewall, NoProvider,
	// LabelMiss, Misdirected).
	Counters map[string]enforce.Counters
	// Exposition is the registry's text after the last packet.
	Exposition []byte
	// Lambda is the LB optimum the plan was solved to (0 under HP).
	Lambda float64
	Tracer *enforce.RuntimeTracer
	// conforms is each flow's verdict, in Flows order.
	conforms []bool
}

// conformPlane is a backend's dataplane under a conformance run.
type conformPlane struct {
	reg *metrics.Registry
	// send offers packets more packets of every flow at its source
	// subnet's proxy, then waits until settled holds: on virtual time the
	// network runs dry, on wall time the wait is bounded by conformWait.
	send      func(packets int, settled func() bool) error
	delivered func() int64
	close     func()
}

// Conform runs c on one backend and reads the outcome.
func Conform(on Backend, c Conformance) (*Reading, error) {
	bed, err := NewBed(Config{Topology: c.Topology, Seed: c.Seed, PoliciesPerClass: 4})
	if err != nil {
		return nil, err
	}
	flows := bed.enforcedFlows(conformFlows)
	if len(flows) < conformFlows {
		return nil, fmt.Errorf("experiments: only %d of %d enforced flows available", len(flows), conformFlows)
	}
	// The plan is solved over exactly the traffic that will run.
	demands := make([]enforce.FlowDemand, len(flows))
	for i, ft := range flows {
		demands[i] = enforce.FlowDemand{Tuple: ft, Packets: conformPackets}
	}
	ctl := controller.New(bed.Dep, bed.AllPairs, bed.Table, controller.Options{
		Strategy:       c.Strategy,
		K:              controller.DefaultK(),
		HashSeed:       uint64(c.Seed)*2654435761 + uint64(c.Strategy),
		LabelSwitching: c.LabelSwitching,
	})
	_, nodes, upd, err := ctl.Deploy(controller.PipelineOptions{}, controller.MeasurementsFromFlows(bed.Dep, bed.Table, demands))
	if err != nil {
		return nil, err
	}
	// The static plan, taken while nothing drives the nodes yet.
	planned := make([]*enforce.Trace, len(flows))
	for i, ft := range flows {
		if planned[i], err = enforce.TraceFlow(nodes, bed.Dep, bed.AllPairs, ft); err != nil {
			return nil, fmt.Errorf("experiments: plan trace %v: %w", ft, err)
		}
	}

	r := &Reading{
		Backend: on.name, Flows: flows, Lambda: upd.Plan.Lambda,
		Tracer:   enforce.NewRuntimeTracer(0, 1, uint64(c.Seed)),
		Counters: make(map[string]enforce.Counters),
	}
	plane, err := on.conform(Site{Graph: bed.Graph, Dep: bed.Dep, Nodes: nodes}, flows, r.Tracer)
	if err != nil {
		return nil, err
	}
	defer plane.close()
	n := int64(len(flows))
	controlled := func() bool {
		var rx int64
		for _, node := range nodes {
			rx += node.CountersSnapshot().ControlRx
		}
		return !c.LabelSwitching || rx >= n
	}
	// Each round settles before the next: every packet delivered and,
	// with label switching, every flow's control message at its proxy.
	for _, packets := range []int64{1, conformPackets - 1} {
		r.Sent += n * packets
		if err := plane.send(int(packets), func() bool { return plane.delivered() >= r.Sent && controlled() }); err != nil {
			return nil, err
		}
	}

	for i, ft := range flows {
		rt := r.Tracer.RuntimeTrace(ft)
		r.conforms = append(r.conforms, planned[i].Conforms(rt, conformPackets))
		if !r.conforms[i] {
			r.Mismatches = append(r.Mismatches, fmt.Sprintf("flow %v: planned%s, runtime%s", ft, hopsOf(planned[i]), hopsOf(rt)))
		}
	}
	r.Delivered = plane.delivered()
	for id, node := range nodes {
		cs := node.CountersSnapshot()
		r.Counters[bed.Graph.Node(id).Name] = cs
		r.LabelTx += cs.LabelTx
		r.TunnelTx += cs.TunnelTx
	}
	r.Exposition = plane.reg.Snapshot().Text
	return r, nil
}

// hopsOf renders a trace's (function, middlebox) hops.
func hopsOf(tr *enforce.Trace) string {
	var b strings.Builder
	for _, h := range tr.Hops {
		fmt.Fprintf(&b, " %v@%d", h.Func, h.Node)
	}
	return b.String()
}

// Differential runs c on both backends and lists every reading on which
// they disagree. The readings come back in Backends order.
func Differential(c Conformance) ([]*Reading, []string, error) {
	var rs []*Reading
	for _, on := range Backends {
		r, err := Conform(on, c)
		if err != nil {
			return nil, nil, fmt.Errorf("%v: %w", on, err)
		}
		rs = append(rs, r)
	}
	// No value is empty: "" stands for a reading one backend lacks.
	a, b := rs[0].values(), rs[1].values()
	for k := range b {
		if _, ok := a[k]; !ok {
			a[k] = ""
		}
	}
	var diffs []string
	for k, v := range a {
		if b[k] != v {
			diffs = append(diffs, fmt.Sprintf("%s: %s %q, %s %q", k, rs[0].Backend, v, rs[1].Backend, b[k]))
		}
	}
	sort.Strings(diffs)
	return rs, diffs, nil
}

// dataplaneFamilies prefixes the metric families both backends emit from
// the shared enforce dataplane.
var dataplaneFamilies = []string{"sdme_node_", "sdme_func_", "sdme_flowtable_", "sdme_labeltable_"}

// values names every reading Differential compares: the packet counts,
// each node's counters, each flow's verdict, and every series of the
// shared dataplane families.
func (r *Reading) values() map[string]string {
	v := map[string]string{"sent": strconv.FormatInt(r.Sent, 10), "delivered": strconv.FormatInt(r.Delivered, 10)}
	for name, cs := range r.Counters {
		fields := reflect.ValueOf(cs)
		for i := 0; i < fields.NumField(); i++ {
			v[name+" "+fields.Type().Field(i).Name] = strconv.FormatInt(fields.Field(i).Int(), 10)
		}
	}
	for i, ft := range r.Flows {
		v["conforms "+ft.String()] = strconv.FormatBool(r.conforms[i])
	}
	for _, line := range strings.Split(string(r.Exposition), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i > 0 && slices.ContainsFunc(dataplaneFamilies, func(fam string) bool { return strings.HasPrefix(line, fam) }) {
			v[line[:i]] = line[i+1:]
		}
	}
	return v
}

// simConform brings a conformance run up on the simulator.
func simConform(site Site, flows []netaddr.FiveTuple, tracer *enforce.RuntimeTracer) (*conformPlane, error) {
	nw := NewSim(site).Network
	reg := nw.NewRegistry()
	nw.AttachMetrics(reg)
	nw.SetTracer(tracer)
	return &conformPlane{
		reg: reg,
		send: func(packets int, _ func() bool) error {
			for i, ft := range flows {
				// Staggered starts keep each flow's packets in order
				// without serializing the run.
				if err := nw.InjectFlow(ft, packets, conformPayload, nw.Engine.Now()+int64(i)*10, 100); err != nil {
					return err
				}
			}
			nw.Run(0)
			return nil
		},
		delivered: func() int64 { return nw.Stats().Delivered },
		close:     func() {},
	}, nil
}

// liveConform brings a conformance run up on real sockets: a fleet of the
// site's nodes and a sink for the flows' destinations.
func liveConform(site Site, flows []netaddr.FiveTuple, tracer *enforce.RuntimeTracer) (*conformPlane, error) {
	fleet := NewFleet()
	reg := fleet.Runtime.NewRegistry()
	fleet.Runtime.AttachMetrics(reg)
	// Attached before the devices own the nodes.
	for _, n := range site.Nodes {
		n.SetMetrics(reg)
		n.SetTracer(tracer)
	}
	dsts := make([]netaddr.Addr, len(flows))
	for i, ft := range flows {
		dsts[i] = ft.Dst
	}
	sink, err := fleet.Runtime.AddSink(dsts...)
	if err == nil {
		err = fleet.Add(site.Nodes)
	}
	if err != nil {
		fleet.Close()
		return nil, err
	}
	return &conformPlane{
		reg: reg,
		send: func(packets int, settled func() bool) error {
			for p := 0; p < packets; p++ {
				for _, ft := range flows {
					proxy, _ := site.Dep.ProxyFor(site.Dep.SubnetIndexOf(ft.Src))
					if err := fleet.Runtime.Send(site.Dep.AddrOf(proxy), ft, conformPayload); err != nil {
						return err
					}
				}
			}
			live.WaitUntil(conformWait, settled)
			return nil
		},
		delivered: func() int64 { return int64(sink.Received()) },
		close:     fleet.Close,
	}, nil
}

// enforcedFlows draws flows from the bed's workload generator and keeps
// those with a non-permit chain free of WP. Web-proxy chains are
// excluded by design: a cache hit legitimately terminates the packet at
// the proxy, so the runtime path of the SECOND flow to a popular object
// is shorter than the static plan — a feature, not a conformance bug.
func (b *Bed) enforcedFlows(want int) []netaddr.FiveTuple {
	var out []netaddr.FiveTuple
	seen := make(map[netaddr.FiveTuple]bool)
	for tries := 0; len(out) < want && tries < 40; tries++ {
		for _, d := range b.GenerateDemands(want * 2000) {
			p := b.Table.Match(d.Tuple)
			if seen[d.Tuple] || p == nil || p.Actions.IsPermit() || slices.Contains(p.Actions, policy.FuncWP) {
				continue
			}
			seen[d.Tuple] = true
			if out = append(out, d.Tuple); len(out) == want {
				break
			}
		}
	}
	return out
}
