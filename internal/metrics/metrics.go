// Package metrics is a dependency-free observability registry: atomic
// counters, gauges and fixed-bucket histograms addressed by name plus
// label pairs, reads of values their owners already keep, and a
// pluggable microsecond clock so the discrete-event simulator stamps
// snapshots with virtual time while the live runtime uses wall time. The
// registry is the single source the figure tables, the conformance tests
// and the /metrics endpoint all read from; the exposition (expose.go) is
// deterministic — families and series are sorted — so two runs with
// identical inputs produce byte-identical snapshots, which the
// determinism regression test asserts.
//
// The package deliberately imports no time source of its own: callers
// inject a Clock (sim: Engine.Now; live: Runtime.NowUS), so same-seed
// simulation snapshots stay byte-identical, timestamps included.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Clock returns the current time in microseconds. The simulator injects
// its virtual clock; the live runtime injects microseconds since start.
type Clock func() int64

// Metric kinds, as rendered in the exposition's # TYPE line.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down (λ, queue depths, epochs).
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts integer observations into fixed cumulative buckets
// (microsecond latencies, hop counts). Integer sums keep snapshots exact
// and reproducible; bucket bounds are fixed at creation.
type Histogram struct {
	bounds []int64        // ascending upper bounds; +Inf is implicit
	counts []atomic.Int64 // len(bounds)+1, last is the +Inf bucket
	sum    atomic.Int64
	count  atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= v })
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the cumulative
// buckets: it returns the upper bound of the first bucket whose cumulative
// count reaches q·Count. With no observations it returns 0; observations
// beyond the last finite bound report that bound (an underestimate, as in
// any fixed-bucket histogram). Concurrent Observe calls make the estimate
// approximate, never a panic.
func (h *Histogram) Quantile(q float64) int64 {
	total := h.count.Load()
	if total <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	need := int64(math.Ceil(q * float64(total)))
	if need < 1 {
		need = 1
	}
	var cum int64
	for i := range h.bounds {
		cum += h.counts[i].Load()
		if cum >= need {
			return h.bounds[i]
		}
	}
	if len(h.bounds) == 0 {
		return 0
	}
	return h.bounds[len(h.bounds)-1]
}

// Sum returns the total of all observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// LatencyBucketsUS is the default bucket set for microsecond latencies,
// spanning a loopback RTT to a badly overloaded middlebox queue.
var LatencyBucketsUS = []int64{50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000, 250000, 1000000}

// HopBuckets is the default bucket set for path hop counts.
var HopBuckets = []int64{1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 24}

// family is one metric name: its kind, help text, label-addressed
// series and the reads that add series at exposition.
type family struct {
	name   string
	kind   string
	help   string
	bounds []int64 // histograms only
	series map[string]interface{}
	reads  []read
}

// Emit reports one series of a read family: its value and its label
// pairs (alternating key, value, as for Counter).
type Emit func(v float64, labels ...string)

// read is one owner's contribution to a read family.
type read struct {
	owner any
	fn    func(Emit)
}

// Registry holds every metric family. All methods are safe for
// concurrent use; get-or-create returns the same instance for the same
// (name, labels), so hot paths can also cache the returned pointer.
type Registry struct {
	clock Clock

	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry creates a registry stamping snapshots with the given clock
// (nil: snapshots are stamped 0).
func NewRegistry(clock Clock) *Registry {
	return &Registry{clock: clock, families: make(map[string]*family)}
}

// NowUS returns the registry clock's current reading.
func (r *Registry) NowUS() int64 {
	if r.clock == nil {
		return 0
	}
	return r.clock()
}

// labelKey renders label pairs as a canonical, sorted series key. Labels
// are alternating key, value strings; an odd count is a programming
// error.
func labelKey(labels []string) string {
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("metrics: odd label list %q", labels))
	}
	if len(labels) == 0 {
		return ""
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		kvs = append(kvs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// getFamily returns the named family, creating it with the given kind.
// Re-registering a name under a different kind is a programming error.
func (r *Registry) getFamily(name, kind string, bounds []int64) *family {
	f := r.families[name]
	if f == nil {
		f = &family{name: name, kind: kind, bounds: bounds, series: make(map[string]interface{})}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", name, f.kind, kind))
	}
	return f
}

// Counter returns the counter for (name, labels), creating it on first
// use.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	key := labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, kindCounter, nil)
	if m, ok := f.series[key]; ok {
		return m.(*Counter)
	}
	c := &Counter{}
	f.series[key] = c
	return c
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	key := labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, kindGauge, nil)
	if m, ok := f.series[key]; ok {
		return m.(*Gauge)
	}
	g := &Gauge{}
	f.series[key] = g
	return g
}

// Histogram returns the histogram for (name, labels), creating it with
// the given bucket bounds on first use. Later calls reuse the family's
// original bounds regardless of the argument, so every series of a
// family shares one bucket layout.
func (r *Registry) Histogram(name string, bounds []int64, labels ...string) *Histogram {
	key := labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(bounds) == 0 {
		bounds = LatencyBucketsUS
	}
	f := r.getFamily(name, kindHistogram, append([]int64(nil), bounds...))
	if m, ok := f.series[key]; ok {
		return m.(*Histogram)
	}
	h := &Histogram{bounds: f.bounds, counts: make([]atomic.Int64, len(f.bounds)+1)}
	f.series[key] = h
	return h
}

// ReadCounter publishes a counter family whose values an owner already
// keeps: every exposition calls fn, which emits the owner's series of the
// family as they are at that moment. Nothing is copied in between, so a
// scrape is never staler than the owner's own count. fn runs outside the
// registry's lock, possibly concurrently with the owner, and must not
// block on it. Each owner reads a family once, and emits series no one
// else in the family emits.
func (r *Registry) ReadCounter(name string, owner any, fn func(Emit)) {
	r.addRead(name, kindCounter, owner, fn)
}

// ReadGauge is ReadCounter for a gauge family.
func (r *Registry) ReadGauge(name string, owner any, fn func(Emit)) {
	r.addRead(name, kindGauge, owner, fn)
}

func (r *Registry) addRead(name, kind string, owner any, fn func(Emit)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, kind, nil)
	f.reads = append(f.reads, read{owner: owner, fn: fn})
}

// Unread removes every read owner registered, in every family: its series
// leave the exposition. A scrape already under way may still call them.
func (r *Registry) Unread(owner any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.families {
		f.reads = slices.DeleteFunc(f.reads, func(rd read) bool { return rd.owner == owner })
	}
}

// SetHelp records a family's # HELP line. Unknown names are a no-op:
// declare help after the family's first use.
func (r *Registry) SetHelp(name, help string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.families[name]; f != nil {
		f.help = help
	}
}
