package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"sdme/internal/nf"
	"sdme/internal/packet"
	"sdme/internal/policy"
)

// Span names: "<layer>.<call>", the layer being the package the call
// enters. bench.* spans are the harness's own work.
const (
	spanGen = iota
	spanOutbound
	spanArrival
	spanForward
	spanSweep
	spanInject
	spanRecompute
	spanPush
	spanDo
	spanNFBase // + index into nfOrder
	numSpans   = spanNFBase + 4
)

var nfOrder = []policy.FuncType{policy.FuncFW, policy.FuncIDS, policy.FuncWP, policy.FuncTM}

var spanNames = [numSpans]string{
	"bench.gen", "enforce.HandleOutbound", "enforce.HandleArrival", "bench.forward",
	"enforce.Sweep", "live.Inject", "controller.Recompute", "mgmt.PushAllDelta2PC",
	"live.Device.Do", "nf.fw.Process", "nf.ids.Process", "nf.wp.Process", "nf.tm.Process",
}

// traceEpoch anchors span timestamps; time.Since reads only the
// monotonic clock, which is cheaper than time.Now.
var traceEpoch = time.Now()

func nanos() int64 { return int64(time.Since(traceEpoch)) }

// span is one recorded call. Parent indexes the recorder's span list
// (-1 for a root); ID is the packet sequence number or control step.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanAgg totals every span of one name: how many, their summed
// duration, and their summed self time (duration minus child spans).
type spanAgg struct {
	Count, TotalNS, SelfNS int64
}

func (a spanAgg) meanNS() float64 {
	if a.Count == 0 {
		return 0
	}
	return float64(a.TotalNS) / float64(a.Count)
}

type frame struct {
	name   int
	start  int64
	child  int64
	rawIdx int
}

// maxRawSpans bounds the spans one recorder keeps verbatim for the trace
// file; the aggregates cover every span regardless.
const maxRawSpans = 20000

// recorder collects the spans of one goroutine. Nesting follows call
// nesting, so a stack gives each span its parent and its self time.
type recorder struct {
	stack  []frame
	agg    [numSpans]spanAgg
	raw    []span
	rootID int64
	keep   bool
}

// root opens a top-level span for packet or step id. Every rawEvery-th
// root (and its children) is kept verbatim until the cap is reached.
func (r *recorder) root(name int, id int64, rawEvery int64) {
	r.rootID = id
	r.keep = id%rawEvery == 0 && len(r.raw) < maxRawSpans
	r.begin(name)
}

func (r *recorder) begin(name int) {
	f := frame{name: name, rawIdx: -1}
	if r.keep {
		parent := -1
		if len(r.stack) > 0 {
			parent = r.stack[len(r.stack)-1].rawIdx
		}
		f.rawIdx = len(r.raw)
		r.raw = append(r.raw, span{Name: spanNames[name], ID: r.rootID, Parent: parent})
	}
	f.start = nanos()
	r.stack = append(r.stack, f)
}

func (r *recorder) end() {
	now := nanos()
	f := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	dur := now - f.start
	a := &r.agg[f.name]
	a.Count++
	a.TotalNS += dur
	a.SelfNS += dur - f.child
	if len(r.stack) > 0 {
		r.stack[len(r.stack)-1].child += dur
	}
	if f.rawIdx >= 0 {
		r.raw[f.rawIdx].Start = f.start
		r.raw[f.rawIdx].End = now
	}
}

// tracer ties the recorders of one traced run together and lets the NF
// timing decorator find the recorder of the goroutine that is driving the
// packet it was handed.
type tracer struct {
	active atomic.Bool
	slots  []traceSlot

	// orphans aggregates NF spans whose caller the benchmark does not own
	// (live device workers): they have no parent span.
	orphanMu sync.Mutex
	orphans  [numSpans]spanAgg
}

type traceSlot struct {
	pkt atomic.Pointer[packet.Packet]
	rec *recorder
	_   [40]byte // keep the two generators' slots on separate cache lines
}

func newTracer(goroutines int) *tracer {
	t := &tracer{slots: make([]traceSlot, goroutines)}
	for i := range t.slots {
		t.slots[i].rec = &recorder{}
	}
	return t
}

// factory is the enforce.FunctionFactory that wraps every NF instance in
// the timing decorator.
func (t *tracer) factory(ft policy.FuncType) (nf.Function, error) {
	f, err := nf.New(ft)
	if err != nil {
		return nil, err
	}
	for i, o := range nfOrder {
		if o == ft {
			return &timedFunc{Function: f, tr: t, name: spanNFBase + i}, nil
		}
	}
	return f, nil
}

// timedFunc records a span around Process while the tracer is active.
type timedFunc struct {
	nf.Function
	tr   *tracer
	name int
}

func (f *timedFunc) Process(pkt *packet.Packet, now int64) nf.Verdict {
	if !f.tr.active.Load() {
		return f.Function.Process(pkt, now)
	}
	for i := range f.tr.slots {
		s := &f.tr.slots[i]
		if s.pkt.Load() == pkt {
			s.rec.begin(f.name)
			v := f.Function.Process(pkt, now)
			s.rec.end()
			return v
		}
	}
	t0 := nanos()
	v := f.Function.Process(pkt, now)
	dur := nanos() - t0
	f.tr.orphanMu.Lock()
	a := &f.tr.orphans[f.name]
	a.Count++
	a.TotalNS += dur
	a.SelfNS += dur
	f.tr.orphanMu.Unlock()
	return v
}

// merged sums the aggregates of every recorder plus the orphans.
func (t *tracer) merged() [numSpans]spanAgg {
	out := t.orphans
	for i := range t.slots {
		for n, a := range t.slots[i].rec.agg {
			out[n].Count += a.Count
			out[n].TotalNS += a.TotalNS
			out[n].SelfNS += a.SelfNS
		}
	}
	return out
}

// traceFile is the schema of bench/results/trace_<workload>.json.
type traceFile struct {
	Workload    string             `json:"workload"`
	Fingerprint fingerprint        `json:"fingerprint"`
	Aggregates  map[string]spanAgg `json:"aggregates"`
	// Recorders holds, per generator goroutine, the spans kept verbatim;
	// Parent indexes within the same list.
	Recorders [][]span `json:"recorders"`
}

// write writes the kept spans and the aggregates of a traced run.
func (t *tracer) write(dir, workload string, fp fingerprint) (string, error) {
	tf := traceFile{Workload: workload, Fingerprint: fp, Aggregates: make(map[string]spanAgg)}
	for n, a := range t.merged() {
		if a.Count > 0 {
			tf.Aggregates[spanNames[n]] = a
		}
	}
	for i := range t.slots {
		tf.Recorders = append(tf.Recorders, t.slots[i].rec.raw)
	}
	buf, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+workload+".json")
	return path, os.WriteFile(path, buf, 0o644)
}
