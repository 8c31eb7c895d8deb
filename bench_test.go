// Benchmarks regenerating every table and figure of the paper's
// evaluation (§IV), plus the extension ablations indexed in DESIGN.md.
// Each benchmark rebuilds the experiment from scratch per iteration (one
// iteration is the full experiment; reported metrics carry the headline
// numbers). cmd/sdme-bench produces the same data as CSV/markdown files.
package sdme_test

import (
	"testing"

	"sdme/internal/enforce"
	"sdme/internal/experiments"
	"sdme/internal/policy"
)

// figureTraffic is the paper's x-axis: 1M..10M total packets.
func figureTraffic() []int {
	var out []int
	for m := 1; m <= 10; m++ {
		out = append(out, m*1000000)
	}
	return out
}

// reportFigure attaches the 10M-packet endpoint loads as metrics and logs
// the full series.
func reportFigure(b *testing.B, res *experiments.FigureResult) {
	b.Helper()
	last := res.Points[len(res.Points)-1]
	for _, f := range experiments.Funcs {
		for _, s := range experiments.Strategies {
			b.ReportMetric(float64(last.MaxLoad[f][s]), f.String()+"_"+s.String()+"_max@10M")
		}
	}
	b.Logf("figure series (%s):\n%s", res.Topology, res.Table().Markdown())
}

// BenchmarkFig4MaxLoadCampus regenerates Figure 4: max load on each
// middlebox type vs total traffic (1M–10M packets) on the campus
// topology, under HP / Rand / LB.
func BenchmarkFig4MaxLoadCampus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunMaxLoadFigure(experiments.Config{
			Topology: "campus", Seed: 20, TrafficPoints: figureTraffic(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportFigure(b, res)
		}
	}
}

// BenchmarkFig5MaxLoadWaxman regenerates Figure 5: the same sweep on the
// 400-edge/25-core Waxman topology.
func BenchmarkFig5MaxLoadWaxman(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunMaxLoadFigure(experiments.Config{
			Topology: "waxman", Seed: 20, TrafficPoints: figureTraffic(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportFigure(b, res)
		}
	}
}

// BenchmarkTable3LoadDistribution regenerates Table III: max and min
// loads per middlebox type on the campus topology at the 10M-packet
// operating point.
func BenchmarkTable3LoadDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunLoadDistributionTable(experiments.Config{
			Topology: "campus", Seed: 20,
		}, 10000000)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range rows {
				kind := "min"
				if r.IsMax {
					kind = "max"
				}
				for _, s := range experiments.Strategies {
					b.ReportMetric(float64(r.ByStrat[s]), r.Func.String()+"_"+kind+"_"+s.String())
				}
			}
			b.Logf("Table III:\n%s", experiments.LoadTable(rows).Markdown())
		}
	}
}

// BenchmarkAblationCandidateSetSize sweeps k (|M_x^e|): the balance vs
// locality trade-off behind the paper's k=4/4/2/2 choice (k=1 degenerates
// to hot-potato).
func BenchmarkAblationCandidateSetSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.RunCandidateKAblation(experiments.Config{
			Topology: "campus", Seed: 20,
		}, 2000000, []int{1, 2, 4, 7})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, p := range points {
				b.ReportMetric(p.Lambda, "lambda@k="+string(rune('0'+p.K)))
			}
			b.Logf("candidate-set ablation:\n%s", experiments.KAblationTable(points).Markdown())
		}
	}
}

// BenchmarkAblationFlowTableAndLabels runs the packet-level simulator
// with MTU-sized packets, with and without §III-E label switching, and
// reports classification work, encapsulation overhead and fragmentation.
func BenchmarkAblationFlowTableAndLabels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		off, err := experiments.RunStateAblation(20, 150, 6, 1480, false)
		if err != nil {
			b.Fatal(err)
		}
		on, err := experiments.RunStateAblation(20, 150, 6, 1480, true)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(off.FragmentsCreated), "fragments_tunnel")
			b.ReportMetric(float64(on.FragmentsCreated), "fragments_labels")
			b.ReportMetric(float64(off.EncapOverheadBytes), "encap_bytes_tunnel")
			b.ReportMetric(float64(on.EncapOverheadBytes), "encap_bytes_labels")
			b.Logf("state ablation:\n%s", experiments.StateAblationTable(off, on).Markdown())
		}
	}
}

// BenchmarkAblationEq1VsEq2 compares the paper's two LP formulations on a
// reduced instance: optimum, size and simplex effort.
func BenchmarkAblationEq1VsEq2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cmp, err := experiments.RunEq1VsEq2(experiments.Config{
			Topology: "campus", Seed: 20, PoliciesPerClass: 3,
		}, 500000)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(cmp.AggVars), "eq2_vars")
			b.ReportMetric(float64(cmp.FineVars), "eq1_vars")
			b.ReportMetric(cmp.AggLambda, "eq2_lambda")
			b.ReportMetric(cmp.FineLambda, "eq1_lambda")
			b.Logf("formulations:\n%s", cmp.Table().Markdown())
		}
	}
}

// BenchmarkEvaluator10M measures the flow-level evaluator's throughput at
// the paper's largest operating point (engineering metric, not a paper
// figure).
func BenchmarkEvaluator10M(b *testing.B) {
	bed, err := experiments.NewBed(experiments.Config{Topology: "campus", Seed: 20})
	if err != nil {
		b.Fatal(err)
	}
	demands := bed.GenerateDemands(10000000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report, _, err := bed.RunStrategy(enforce.HotPotato, demands)
		if err != nil {
			b.Fatal(err)
		}
		if report.MaxLoad(bed.Dep, policy.FuncIDS) == 0 {
			b.Fatal("empty report")
		}
	}
}

// BenchmarkAblationPathStretch reports the routing detour each strategy
// pays relative to unenforced shortest paths (extension; the paper does
// not evaluate latency).
func BenchmarkAblationPathStretch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base, points, err := experiments.RunPathStretch(experiments.Config{
			Topology: "campus", Seed: 20,
		}, 2000000)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(base, "baseline_hops")
			for _, p := range points {
				b.ReportMetric(p.Stretch, "stretch_"+p.Strategy.String())
			}
			b.Logf("path stretch:\n%s", experiments.StretchTable(base, points).Markdown())
		}
	}
}

// BenchmarkAblationQueueing gives every middlebox a finite service rate
// and measures end-to-end latency per strategy — the latency meaning of
// min-max λ (extension).
func BenchmarkAblationQueueing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.RunQueueingAblation(20, 120, 40, 9000)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, p := range points {
				b.ReportMetric(p.AvgLatencyUS, "avg_latency_us_"+p.Strategy.String())
			}
			b.Logf("queueing under finite capacity:\n%s", experiments.QueueingTable(points).Markdown())
		}
	}
}

// BenchmarkAblationTrafficDrift compares §III-C periodic rebalancing
// against frozen epoch-0 weights under a rotating traffic surge
// (extension).
func BenchmarkAblationTrafficDrift(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunDriftExperiment(experiments.Config{
			Topology: "campus", Seed: 20,
		}, 1000000, 6)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			var stale, rebal int64
			for _, r := range rows[1:] {
				stale += r.MaxStale
				rebal += r.MaxRebalanced
			}
			b.ReportMetric(float64(stale)/float64(len(rows)-1), "avg_max_stale")
			b.ReportMetric(float64(rebal)/float64(len(rows)-1), "avg_max_rebalanced")
			b.Logf("traffic drift:\n%s", experiments.DriftTable(rows).Markdown())
		}
	}
}
