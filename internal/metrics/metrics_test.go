package metrics

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterIdentityAndLabels(t *testing.T) {
	r := NewRegistry(nil)
	a := r.Counter("pkts_total", "node", "3", "func", "FW")
	b := r.Counter("pkts_total", "func", "FW", "node", "3") // order-independent
	if a != b {
		t.Fatal("same (name, labels) must return the same counter")
	}
	c := r.Counter("pkts_total", "node", "4", "func", "FW")
	if a == c {
		t.Fatal("different labels must return different counters")
	}
	a.Add(5)
	a.Inc()
	a.Add(-3) // ignored: counters are monotonic
	if got := b.Value(); got != 6 {
		t.Fatalf("counter = %d, want 6", got)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry(nil)
	g := r.Gauge("lambda")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry(nil)
	h := r.Histogram("lat_us", []int64{10, 100, 1000})
	for _, v := range []int64{5, 10, 11, 100, 5000} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 5126 {
		t.Fatalf("count=%d sum=%d, want 5 and 5126", h.Count(), h.Sum())
	}
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`lat_us_bucket{le="10"} 2`,
		`lat_us_bucket{le="100"} 4`,
		`lat_us_bucket{le="1000"} 4`,
		`lat_us_bucket{le="+Inf"} 5`,
		`lat_us_sum 5126`,
		`lat_us_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestExpositionDeterministicAndSorted(t *testing.T) {
	build := func() *Registry {
		var at int64 = 42
		r := NewRegistry(func() int64 { return at })
		// Create in scrambled order; exposition must sort.
		r.Counter("z_total", "b", "2").Add(7)
		r.Counter("a_total").Inc()
		r.Gauge("m_gauge", "x", "1").Set(0.25)
		r.Counter("z_total", "b", "1").Add(3)
		r.Histogram("h_us", []int64{1, 2}, "n", "9").Observe(2)
		return r
	}
	s1 := build().Snapshot()
	s2 := build().Snapshot()
	if !bytes.Equal(s1.Text, s2.Text) {
		t.Fatalf("snapshots differ:\n%s\nvs\n%s", s1.Text, s2.Text)
	}
	if s1.AtUS != 42 || !bytes.Contains(s1.Text, []byte("# snapshot at_us 42")) {
		t.Fatalf("snapshot not stamped with clock: %d\n%s", s1.AtUS, s1.Text)
	}
	out := string(s1.Text)
	if strings.Index(out, "a_total") > strings.Index(out, "z_total") {
		t.Fatal("families not sorted")
	}
	if strings.Index(out, `{b="1"}`) > strings.Index(out, `{b="2"}`) {
		t.Fatal("series not sorted")
	}
}

func TestReadSeries(t *testing.T) {
	r := NewRegistry(nil)
	r.Counter("pkts_total", "node", "2").Add(4) // a pushed series beside the reads
	var a, b int64 = 10, 20
	ownerA, ownerB := new(int), new(int)
	r.ReadCounter("pkts_total", ownerB, func(emit Emit) { emit(float64(b), "node", "3") })
	r.ReadCounter("pkts_total", ownerA, func(emit Emit) { emit(float64(a), "node", "1") })
	r.ReadGauge("depth", ownerA, func(emit Emit) { emit(0.5) })
	r.ReadGauge("empty", ownerA, func(Emit) {})
	expose := func() string {
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	a = 11 // read at exposition, not at registration
	want := "# TYPE depth gauge\ndepth 0.5\n" +
		"# TYPE pkts_total counter\n" +
		`pkts_total{node="1"} 11` + "\n" + `pkts_total{node="2"} 4` + "\n" + `pkts_total{node="3"} 20` + "\n"
	if got := expose(); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}

	// Unread drops every read of an owner and keeps pushed series.
	r.Unread(ownerA)
	want = "# TYPE pkts_total counter\n" + `pkts_total{node="2"} 4` + "\n" + `pkts_total{node="3"} 20` + "\n"
	if got := expose(); got != want {
		t.Fatalf("after Unread:\n%s\nwant:\n%s", got, want)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry(nil)
	r.Counter("esc_total", "k", "a\"b\\c\nd").Inc()
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `esc_total{k="a\"b\\c\nd"} 1`) {
		t.Fatalf("bad escaping:\n%s", b.String())
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry(nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c_total", "w", "shared").Inc()
				r.Histogram("h_us", []int64{10, 100}, "w", "shared").Observe(int64(j % 200))
				r.Gauge("g").Add(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c_total", "w", "shared").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("h_us", nil, "w", "shared").Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
	if got := r.Gauge("g").Value(); got != 8000 {
		t.Fatalf("gauge = %v, want 8000", got)
	}
}

func TestServeMuxMetricsAndPprof(t *testing.T) {
	r := NewRegistry(func() int64 { return 7 })
	r.Counter("up_total").Inc()
	r.SetHelp("up_total", "demo counter")
	srv := httptest.NewServer(ServeMux(r))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{"# HELP up_total demo counter", "# TYPE up_total counter", "up_total 1"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, body = get("/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ status %d body %.80s", code, body)
	}
}
