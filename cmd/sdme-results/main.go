// Command sdme-results regenerates every table and figure of the paper's
// evaluation (plus the repository's extension ablations and the fault
// stories on both backends) and writes them as CSV and Markdown under an
// output directory.
//
// Usage:
//
//	sdme-results [-out results] [-seed 20] [-quick] [-multiseed N]
//
// -quick runs a reduced traffic sweep (useful for smoke checks); the
// default regenerates the full 1M–10M packet series of Figures 4 and 5.
//
// It measures no performance: dataplane and control-loop performance are
// measured by the repository benchmark (go run ./bench; see bench/README.md).
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
		fmt.Fprintln(os.Stderr, "sdme-results:", err)
		os.Exit(1)
	}
}

func run() error {
	out := flag.String("out", "results", "output directory for CSV/Markdown artifacts")
	seed := flag.Int64("seed", 20, "seed for topology, placement and workload")
	quick := flag.Bool("quick", false, "reduced sweep for smoke checks")
	multiseed := flag.Int("multiseed", 0, "additionally average the campus point over N seeds")
	flag.Parse()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
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
	// section appends one table to the Markdown report; save also writes it
	// as CSV under that name in the output directory.
	section := func(title string, t *experiments.Table) {
		fmt.Fprintf(md, "\n## %s\n\n%s", title, t.Markdown())
	}
	save := func(title, csv string, t *experiments.Table) error {
		section(title, t)
		path := filepath.Join(*out, csv)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := t.WriteCSV(f); err != nil {
			_ = f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("close %s: %w", path, err)
		}
		fmt.Printf("%s: %d rows -> %s\n", title, len(t.Rows), path)
		return nil
	}
	campus := experiments.Config{Topology: "campus", Seed: *seed}

	for i, topoName := range []string{"campus", "waxman"} {
		res, err := experiments.RunMaxLoadFigure(experiments.Config{
			Topology: topoName, Seed: *seed, TrafficPoints: traffic,
		})
		if err != nil {
			return fmt.Errorf("figure on %s: %w", topoName, err)
		}
		title := fmt.Sprintf("Figure %d (%s topology): max load per middlebox type", 4+i, topoName)
		if err := save(title, "figure_"+topoName+".csv", res.Table()); err != nil {
			return err
		}
	}

	rows, err := experiments.RunLoadDistributionTable(campus, tablePoint)
	if err != nil {
		return fmt.Errorf("table III: %w", err)
	}
	if err := save(fmt.Sprintf("Table III (campus, %d packets)", tablePoint), "table3.csv", experiments.LoadTable(rows)); err != nil {
		return err
	}

	kPoints, err := experiments.RunCandidateKAblation(campus, tablePoint/5, []int{1, 2, 4, 7})
	if err != nil {
		return fmt.Errorf("k ablation: %w", err)
	}
	section("Ablation A: candidate-set size k", experiments.KAblationTable(kPoints))

	off, err := experiments.RunStateAblation(*seed, 150, 6, 1480, false)
	if err != nil {
		return fmt.Errorf("state ablation (tunnel): %w", err)
	}
	on, err := experiments.RunStateAblation(*seed, 150, 6, 1480, true)
	if err != nil {
		return fmt.Errorf("state ablation (labels): %w", err)
	}
	section("Ablation B: flow table & label switching", experiments.StateAblationTable(off, on))

	base, stretch, err := experiments.RunPathStretch(campus, tablePoint/5)
	if err != nil {
		return fmt.Errorf("path stretch: %w", err)
	}
	section("Ablation D: path stretch", experiments.StretchTable(base, stretch))

	qpoints, err := experiments.RunQueueingAblation(*seed, 120, 40, 9000)
	if err != nil {
		return fmt.Errorf("queueing ablation: %w", err)
	}
	section("Ablation E: latency under finite middlebox capacity", experiments.QueueingTable(qpoints))

	drift, err := experiments.RunDriftExperiment(campus, tablePoint/10, 6)
	if err != nil {
		return fmt.Errorf("drift: %w", err)
	}
	section("Ablation F: periodic rebalancing under traffic drift", experiments.DriftTable(drift))

	cmp, err := experiments.RunEq1VsEq2(experiments.Config{
		Topology: "campus", Seed: *seed, PoliciesPerClass: 3,
	}, tablePoint/20)
	if err != nil {
		return fmt.Errorf("formulation ablation: %w", err)
	}
	section("Ablation C: Eq. (1) vs Eq. (2)", cmp.Table())

	// The fault stories, each on both backends.
	recovery, failover := experiments.Recovery(*seed), experiments.Failover(*seed)
	if *quick {
		recovery.Flows, recovery.PacketsPerFlow = 20, 100
	}
	var recRes, failRes, restRes, haRes []experiments.Result
	for _, on := range experiments.Backends {
		rec, err := experiments.Run(on, recovery)
		if err != nil {
			return fmt.Errorf("%v recovery: %w", on, err)
		}
		fo, err := experiments.Run(on, failover)
		if err != nil {
			return fmt.Errorf("%v failover: %w", on, err)
		}
		rs, err := experiments.Run(on, experiments.Restart(*seed))
		if err != nil {
			return fmt.Errorf("%v restart: %w", on, err)
		}
		ha, err := experiments.Run(on, experiments.Takeover(*seed, 3, 1, 0))
		if err != nil {
			return fmt.Errorf("%v controller HA: %w", on, err)
		}
		recRes, failRes = append(recRes, *rec), append(failRes, *fo)
		restRes, haRes = append(restRes, *rs), append(haRes, *ha)
	}
	if err := save("Recovery convergence under the acceptance fault schedule", "recovery.csv", experiments.RecoveryTable(recRes)); err != nil {
		return err
	}
	if err := save("Local fast failover and controller restart", "failover.csv", experiments.SurvivabilityTable(failRes, restRes)); err != nil {
		return err
	}
	if err := save("Replicated controller HA: fenced takeover", "ha.csv", experiments.HATable(haRes)); err != nil {
		return err
	}

	if *multiseed > 1 {
		seeds := make([]int64, *multiseed)
		for i := range seeds {
			seeds[i] = *seed + int64(i)
		}
		sum, err := experiments.RunMultiSeed(experiments.Config{Topology: "campus"}, tablePoint/5, seeds)
		if err != nil {
			return fmt.Errorf("multiseed: %w", err)
		}
		title := fmt.Sprintf("Cross-seed robustness: max load at %d packets, %s topology, %d seeds", sum.Traffic, sum.Topology, len(seeds))
		section(title, sum.Table())
	}

	if err := md.Close(); err != nil {
		return fmt.Errorf("close %s: %w", md.Name(), err)
	}
	fmt.Println("markdown -> " + md.Name())
	return nil
}
