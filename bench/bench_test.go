package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ q, want float64 }{
		{0.50, 50}, {0.90, 90}, {0.91, 100}, {0.99, 100}, {0.0, 10}, {1.0, 100}, {0.05, 10}, {0.11, 20},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("quantile of one sample = %v, want 7", got)
	}
}

// The calibration spread must be the one the benchmark contract computes:
// Python's statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
}

func TestSpanSelfTime(t *testing.T) {
	r := &recorder{}
	r.root(spanOutbound, 0, 1)
	r.begin(spanForward)
	r.begin(spanArrival)
	r.end()
	r.end()
	r.begin(spanForward)
	r.end()
	r.end()
	if len(r.stack) != 0 {
		t.Fatalf("stack not empty: %d frames", len(r.stack))
	}
	out, fwd, arr := r.agg[spanOutbound], r.agg[spanForward], r.agg[spanArrival]
	if out.Count != 1 || fwd.Count != 2 || arr.Count != 1 {
		t.Fatalf("counts = %d %d %d, want 1 2 1", out.Count, fwd.Count, arr.Count)
	}
	// Self time is the span minus its direct children, so the self times
	// of a tree sum to the root's duration.
	if out.SelfNS != out.TotalNS-fwd.TotalNS {
		t.Errorf("root self %d, want total %d - children %d", out.SelfNS, out.TotalNS, fwd.TotalNS)
	}
	if fwd.SelfNS != fwd.TotalNS-arr.TotalNS {
		t.Errorf("forward self %d, want total %d - child %d", fwd.SelfNS, fwd.TotalNS, arr.TotalNS)
	}
	if sum := out.SelfNS + fwd.SelfNS + arr.SelfNS; sum != out.TotalNS {
		t.Errorf("self times sum to %d, root lasted %d", sum, out.TotalNS)
	}
	wantParents := []int{-1, 0, 1, 0}
	if len(r.raw) != len(wantParents) {
		t.Fatalf("kept %d spans, want %d", len(r.raw), len(wantParents))
	}
	for i, s := range r.raw {
		if s.Parent != wantParents[i] {
			t.Errorf("span %d (%s) parent %d, want %d", i, s.Name, s.Parent, wantParents[i])
		}
		if s.End < s.Start {
			t.Errorf("span %d ends before it starts", i)
		}
	}
}

// The names must satisfy the benchmark contract, and BENCHMARK.json must
// describe exactly what the program reports.
func TestNamesAndBenchmarkJSON(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		use(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		use(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better %q", d.Name, d.Better)
		}
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, limit 128", len(perLayer))
	}

	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %+v", i, spec.Workloads[i], w)
		}
	}
	same := func(kind string, js []jsonMetric, defs []metricDef, bounded bool) {
		if len(js) != len(defs) {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, the program has %d", len(js), kind, len(defs))
		}
		for i, d := range defs {
			j := js[i]
			if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, j, d)
			}
			if bounded && (j.Bound == nil || *j.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25) {
				t.Errorf("%s metric %s: bound %v in BENCHMARK.json, %v in the program", kind, d.Name, j.Bound, d.Bound)
			}
			if !bounded && j.Bound != nil {
				t.Errorf("%s metric %s has a bound", kind, d.Name)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd, true)
	same("per_layer", spec.PerLayer, perLayer, false)
}

// TestSmoke runs every workload, traced, as the -smoke flag does. The
// traced run has an untraced half, so both code paths execute, and every
// correctness check inside the command must hold.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			res, err := runWorkload(w.Name, runConfig{seed: 3, seconds: 0.1, trace: true, resultsDir: t.TempDir(), smoke: true})
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct() {
				t.Fatalf("attempted %d, failed %d, checks %v", res.Attempted, res.Failed, res.FailedChecks)
			}
			for _, d := range endToEnd {
				if v, ok := res.E2E[d.Name]; !ok || v <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, v)
				}
			}
			for name := range res.Layer {
				if !definedPerLayer(name) {
					t.Errorf("run reports %s, which perLayer does not define", name)
				}
			}
			// The workloads separate the layers.
			L := res.Layer
			switch w.Name {
			case "steady_chain":
				if L["enforce.classified_per_pkt"] >= 0.01 || L["enforce.label_tx_share"] != 0 {
					t.Errorf("classified/pkt %v, label share %v", L["enforce.classified_per_pkt"], L["enforce.label_tx_share"])
				}
			case "label_chain":
				if L["enforce.label_tx_share"] <= 0.95 {
					t.Errorf("label share %v, want > 0.95", L["enforce.label_tx_share"])
				}
			case "flow_churn":
				if L["enforce.classified_per_pkt"] <= 1 {
					t.Errorf("classified/pkt %v, want > 1", L["enforce.classified_per_pkt"])
				}
			}
		})
	}
}

func definedPerLayer(name string) bool {
	for _, d := range perLayer {
		if d.Name == name {
			return true
		}
	}
	return false
}

func TestFingerprintComparable(t *testing.T) {
	a := hostFingerprint(1)
	b := a
	b.Commit = "another"
	if !a.comparable(b) {
		t.Error("results from two commits on one host must be comparable")
	}
	b.Seed = 2
	if a.comparable(b) {
		t.Error("results from different seeds must not be comparable")
	}
}
