package metrics

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"slices"
	"sort"
	"strconv"
)

// Snapshot is one frozen exposition: the registry's full Prometheus text
// at a moment of (virtual or wall) time. The simulator takes these
// periodically; the determinism regression test compares them
// byte-for-byte across runs.
type Snapshot struct {
	AtUS int64
	Text []byte
}

// Snapshot freezes the registry now.
func (r *Registry) Snapshot() Snapshot {
	var b bytes.Buffer
	at := r.NowUS()
	fmt.Fprintf(&b, "# snapshot at_us %d\n", at)
	_ = r.WritePrometheus(&b)
	return Snapshot{AtUS: at, Text: b.Bytes()}
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format, families and series in sorted order so output is
// deterministic. Read families are read here, once per call; a family
// with no series is left out.
func (r *Registry) WritePrometheus(w io.Writer) error {
	// Snapshot family/series structure under the lock; values are atomics
	// or reads, taken lock-free afterwards.
	type seriesRef struct {
		key string
		m   interface{} // a pushed metric, or a read's float64
	}
	type famRef struct {
		f      *family
		series []seriesRef
		reads  []read
	}
	r.mu.Lock()
	fams := make([]famRef, 0, len(r.families))
	for _, f := range r.families {
		fr := famRef{f: f, reads: slices.Clone(f.reads)}
		for k, m := range f.series {
			fr.series = append(fr.series, seriesRef{key: k, m: m})
		}
		fams = append(fams, fr)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].f.name < fams[j].f.name })

	var b bytes.Buffer
	for _, fr := range fams {
		f := fr.f
		for _, rd := range fr.reads {
			rd.fn(func(v float64, labels ...string) {
				fr.series = append(fr.series, seriesRef{key: labelKey(labels), m: v})
			})
		}
		if len(fr.series) == 0 {
			continue
		}
		sort.Slice(fr.series, func(i, j int) bool { return fr.series[i].key < fr.series[j].key })
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range fr.series {
			switch m := s.m.(type) {
			case *Counter:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, s.key, m.Value())
			case *Gauge:
				writeGauge(&b, f.name, s.key, m.Value())
			case *Histogram:
				writeHistogram(&b, f.name, s.key, m)
			case float64: // a read
				if f.kind == kindCounter {
					fmt.Fprintf(&b, "%s%s %d\n", f.name, s.key, int64(m))
				} else {
					writeGauge(&b, f.name, s.key, m)
				}
			}
		}
	}
	_, err := w.Write(b.Bytes())
	return err
}

func writeGauge(b *bytes.Buffer, name, key string, v float64) {
	fmt.Fprintf(b, "%s%s %s\n", name, key, strconv.FormatFloat(v, 'g', -1, 64))
}

// writeHistogram renders one histogram series: cumulative buckets, sum
// and count.
func writeHistogram(b *bytes.Buffer, name, key string, h *Histogram) {
	var cum int64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, mergeLE(key, strconv.FormatInt(bound, 10)), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, mergeLE(key, "+Inf"), cum)
	fmt.Fprintf(b, "%s_sum%s %d\n", name, key, h.Sum())
	fmt.Fprintf(b, "%s_count%s %d\n", name, key, h.Count())
}

// mergeLE splices the le label into an existing (possibly empty)
// rendered label set.
func mergeLE(key, le string) string {
	if key == "" {
		return `{le="` + le + `"}`
	}
	return key[:len(key)-1] + `,le="` + le + `"}`
}

// Handler serves the registry as a Prometheus /metrics endpoint.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// ServeMux returns a mux serving /metrics plus the standard
// net/http/pprof endpoints under /debug/pprof/ — the live runtime's
// observability surface.
func ServeMux(r *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", Handler(r))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
