// Command sdme-bench regenerates every table and figure of the paper's
// evaluation (plus the repository's extension ablations) and writes them
// as CSV and Markdown under an output directory.
//
// Usage:
//
//	sdme-bench [-suite paper|churn] [-out results] [-seed 20] [-quick] [-smoke]
//
// -quick runs a reduced traffic sweep (useful for smoke checks); the
// default regenerates the full 1M–10M packet series of Figures 4 and 5.
//
// Dataplane and control-loop performance are measured by the repository
// benchmark instead (go run ./bench; see bench/README.md).
//
// -suite churn replays randomized policy/node/demand churn through the
// full-rebuild and incremental compilation pipelines and writes
// results/bench_churn.json (recompute latency, pushed bytes full vs
// delta per churn rate); it exits nonzero if the incremental rollout
// fails the ≤0.5× byte gate at the lowest rate. -smoke shrinks it for
// CI.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"sdme/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sdme-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	out := flag.String("out", "results", "output directory for CSV/Markdown artifacts")
	seed := flag.Int64("seed", 20, "seed for topology, placement and workload")
	quick := flag.Bool("quick", false, "reduced sweep for smoke checks")
	multiseed := flag.Int("multiseed", 0, "additionally average the campus point over N seeds")
	suite := flag.String("suite", "paper", "benchmark suite: paper (figures/tables) or churn (incremental pipeline)")
	smoke := flag.Bool("smoke", false, "churn suite only: reduced sizes for CI")
	flag.Parse()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	switch *suite {
	case "churn":
		return runChurnSuite(*out, *seed, *smoke)
	case "paper":
	default:
		return fmt.Errorf("unknown suite %q (want paper or churn)", *suite)
	}
	traffic := []int(nil) // default: paper's 1M..10M
	tablePoint := 10000000
	if *quick {
		traffic = []int{200000, 400000}
		tablePoint = 400000
	}

	md, err := os.Create(filepath.Join(*out, "EXPERIMENTS.generated.md"))
	if err != nil {
		return err
	}
	// Backstop for early error returns; the success path closes
	// explicitly below so a flush failure is not silently dropped.
	defer func() { _ = md.Close() }()
	fmt.Fprintf(md, "# Generated experiment results\n\nseed %d, generated %s\n",
		*seed, time.Now().UTC().Format(time.RFC3339))

	for _, topoName := range []string{"campus", "waxman"} {
		start := time.Now()
		res, err := experiments.RunMaxLoadFigure(experiments.Config{
			Topology: topoName, Seed: *seed, TrafficPoints: traffic,
		})
		if err != nil {
			return fmt.Errorf("figure on %s: %w", topoName, err)
		}
		csvPath := filepath.Join(*out, "figure_"+topoName+".csv")
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		if err := experiments.WriteFigureCSV(f, res); err != nil {
			_ = f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("close %s: %w", csvPath, err)
		}
		figNum := 4
		if topoName == "waxman" {
			figNum = 5
		}
		fmt.Fprintf(md, "\n## Figure %d (%s topology)\n%s", figNum, topoName, experiments.FigureMarkdown(res))
		fmt.Printf("figure %d (%s): %d points -> %s (%v)\n",
			figNum, topoName, len(res.Points), csvPath, time.Since(start).Round(time.Millisecond))
	}

	rows, err := experiments.RunLoadDistributionTable(experiments.Config{
		Topology: "campus", Seed: *seed,
	}, tablePoint)
	if err != nil {
		return fmt.Errorf("table III: %w", err)
	}
	f, err := os.Create(filepath.Join(*out, "table3.csv"))
	if err != nil {
		return err
	}
	if err := experiments.WriteTableCSV(f, rows); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close table3.csv: %w", err)
	}
	fmt.Fprintf(md, "\n## Table III (campus, %d packets)\n\n%s", tablePoint, experiments.TableMarkdown(rows))
	fmt.Println("table III -> " + filepath.Join(*out, "table3.csv"))

	kPoints, err := experiments.RunCandidateKAblation(experiments.Config{
		Topology: "campus", Seed: *seed,
	}, tablePoint/5, []int{1, 2, 4, 7})
	if err != nil {
		return fmt.Errorf("k ablation: %w", err)
	}
	fmt.Fprintf(md, "\n## Ablation A: candidate-set size k\n\n%s", experiments.KAblationMarkdown(kPoints))

	off, err := experiments.RunStateAblation(*seed, 150, 6, 1480, false)
	if err != nil {
		return fmt.Errorf("state ablation (tunnel): %w", err)
	}
	on, err := experiments.RunStateAblation(*seed, 150, 6, 1480, true)
	if err != nil {
		return fmt.Errorf("state ablation (labels): %w", err)
	}
	fmt.Fprintf(md, "\n## Ablation B: flow table & label switching\n\n%s", experiments.StateAblationMarkdown(off, on))

	base, stretch, err := experiments.RunPathStretch(experiments.Config{
		Topology: "campus", Seed: *seed,
	}, tablePoint/5)
	if err != nil {
		return fmt.Errorf("path stretch: %w", err)
	}
	fmt.Fprintf(md, "\n## Ablation D: path stretch\n\n%s", experiments.StretchMarkdown(base, stretch))

	qpoints, err := experiments.RunQueueingAblation(*seed, 120, 40, 9000)
	if err != nil {
		return fmt.Errorf("queueing ablation: %w", err)
	}
	fmt.Fprintf(md, "\n## Ablation E: latency under finite middlebox capacity\n\n%s", experiments.QueueingMarkdown(qpoints))

	drift, err := experiments.RunDriftExperiment(experiments.Config{
		Topology: "campus", Seed: *seed,
	}, tablePoint/10, 6)
	if err != nil {
		return fmt.Errorf("drift: %w", err)
	}
	fmt.Fprintf(md, "\n## Ablation F: periodic rebalancing under traffic drift\n\n%s", experiments.DriftMarkdown(drift))

	cmp, err := experiments.RunEq1VsEq2(experiments.Config{
		Topology: "campus", Seed: *seed, PoliciesPerClass: 3,
	}, tablePoint/20)
	if err != nil {
		return fmt.Errorf("formulation ablation: %w", err)
	}
	fmt.Fprintf(md, "\n## Ablation C: Eq. (1) vs Eq. (2)\n\n%s", experiments.FormulationMarkdown(cmp))

	recCfg := experiments.RecoveryConfig{Seed: *seed}
	if *quick {
		recCfg.Flows = 20
		recCfg.PacketsPerFlow = 100
	}
	start := time.Now()
	recRes, err := experiments.RunRecoveryExperiments(recCfg)
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	recPath := filepath.Join(*out, "recovery.csv")
	rf, err := os.Create(recPath)
	if err != nil {
		return err
	}
	if err := experiments.WriteRecoveryCSV(rf, recRes); err != nil {
		_ = rf.Close()
		return err
	}
	if err := rf.Close(); err != nil {
		return fmt.Errorf("close recovery.csv: %w", err)
	}
	fmt.Fprintf(md, "\n## Recovery convergence under the acceptance fault schedule\n\n%s", experiments.RecoveryMarkdown(recRes))
	fmt.Printf("recovery: %d substrates -> %s (%v)\n", len(recRes), recPath, time.Since(start).Round(time.Millisecond))

	start = time.Now()
	var failRes []experiments.FailoverResult
	var restRes []experiments.RestartResult
	for _, runFO := range []func(experiments.FailoverConfig) (*experiments.FailoverResult, error){
		experiments.RunSimFailover, experiments.RunLiveFailover,
	} {
		r, err := runFO(experiments.FailoverConfig{Seed: *seed})
		if err != nil {
			return fmt.Errorf("failover: %w", err)
		}
		failRes = append(failRes, *r)
	}
	for _, runRS := range []func(experiments.RestartConfig) (*experiments.RestartResult, error){
		experiments.RunSimRestart, experiments.RunLiveRestart,
	} {
		r, err := runRS(experiments.RestartConfig{Seed: *seed})
		if err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		restRes = append(restRes, *r)
	}
	foPath := filepath.Join(*out, "failover.csv")
	ff, err := os.Create(foPath)
	if err != nil {
		return err
	}
	if err := experiments.WriteSurvivabilityCSV(ff, failRes, restRes); err != nil {
		_ = ff.Close()
		return err
	}
	if err := ff.Close(); err != nil {
		return fmt.Errorf("close failover.csv: %w", err)
	}
	fmt.Fprintf(md, "\n## Local fast failover and controller restart\n\n%s", experiments.SurvivabilityMarkdown(failRes, restRes))
	fmt.Printf("survivability: %d failover + %d restart runs -> %s (%v)\n",
		len(failRes), len(restRes), foPath, time.Since(start).Round(time.Millisecond))

	start = time.Now()
	haRes, err := experiments.RunHAExperiments(experiments.HAConfig{Seed: *seed})
	if err != nil {
		return fmt.Errorf("controller HA: %w", err)
	}
	haPath := filepath.Join(*out, "ha.csv")
	hf, err := os.Create(haPath)
	if err != nil {
		return err
	}
	if err := experiments.WriteHACSV(hf, haRes); err != nil {
		_ = hf.Close()
		return err
	}
	if err := hf.Close(); err != nil {
		return fmt.Errorf("close ha.csv: %w", err)
	}
	fmt.Fprintf(md, "\n## Replicated controller HA: fenced takeover\n\n%s", experiments.HAMarkdown(haRes))
	fmt.Printf("controller HA: %d takeover runs -> %s (%v)\n",
		len(haRes), haPath, time.Since(start).Round(time.Millisecond))

	if *multiseed > 1 {
		seeds := make([]int64, *multiseed)
		for i := range seeds {
			seeds[i] = *seed + int64(i)
		}
		sum, err := experiments.RunMultiSeed(experiments.Config{Topology: "campus"}, tablePoint/5, seeds)
		if err != nil {
			return fmt.Errorf("multiseed: %w", err)
		}
		fmt.Fprintf(md, "\n## Cross-seed robustness\n\n%s", experiments.MultiSeedMarkdown(sum))
		fmt.Printf("multi-seed summary over %d seeds\n", *multiseed)
	}

	if err := md.Close(); err != nil {
		return fmt.Errorf("close %s: %w", md.Name(), err)
	}
	fmt.Println("markdown -> " + md.Name())
	return nil
}

// runChurnSuite runs the full-vs-incremental churn grid and enforces
// the pushed-bytes gate at the lowest churn rate.
func runChurnSuite(out string, seed int64, smoke bool) error {
	cfg := experiments.ChurnConfig{Seed: seed}
	if smoke {
		cfg.Steps = 12
		cfg.Rates = []int{1, 4}
		cfg.PoliciesPerClass = 3
		cfg.DemandTarget = 4000
	}
	start := time.Now()
	res, err := experiments.RunChurnBench(cfg)
	if err != nil {
		return err
	}
	res.Generated = time.Now().UTC().Format(time.RFC3339)
	path := filepath.Join(out, "bench_churn.json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := experiments.WriteChurnJSON(f, res); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	fmt.Print(experiments.ChurnMarkdown(res))
	fmt.Printf("churn: %d points -> %s (%v)\n",
		len(res.Points), path, time.Since(start).Round(time.Millisecond))
	if !res.Gate.Pass {
		return fmt.Errorf("churn byte gate failed: rate-%d incremental/full ratio %.3f > %.2f",
			res.Gate.Rate, res.Gate.Measured, res.Gate.MaxRatio)
	}
	return nil
}
