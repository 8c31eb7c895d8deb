// Command bench is the repository benchmark: five workloads over the real
// enforce.Nodes, the live UDP runtime and the controller pipeline → mgmt
// wire loop. BENCHMARK.json at the repository root describes it; README.md
// in this directory defines every workload and metric.
//
//	go run ./bench                          all workloads, end-to-end metrics
//	go run ./bench -trace 1                 per-layer metrics and span files
//	go run ./bench -workload flow_churn     one workload
//	go run ./bench -calibrate 10            run-to-run spread of every metric
//	go run ./bench -compare old.json,new.json
//
// With -workload the last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// runConfig parameterizes one workload run.
type runConfig struct {
	seed       int64
	seconds    float64 // measured time
	trace      bool
	resultsDir string
	// smoke shrinks everything that is a fixed amount of work — set-up
	// repeats, ladder rungs, control steps — so that all five workloads
	// run in a few seconds under the race detector. Its numbers mean
	// nothing; its correctness checks are the full ones.
	smoke bool
}

// Set-up runs several times per run and setup_s is the median: at least
// minSetups times, then until setupBudget is spent or maxSetups is reached.
// The last bed built is the one measured.
const (
	minSetups   = 3
	maxSetups   = 40
	setupBudget = 1500 * time.Millisecond
)

// repeatSetup calls build as the constants above say (once in a smoke
// run). build tears down the bed of its previous call.
func (c runConfig) repeatSetup(build func() (setupTimes, error)) ([]setupTimes, error) {
	var runs []setupTimes
	for start := time.Now(); ; {
		st, err := build()
		if err != nil {
			return nil, err
		}
		runs = append(runs, st)
		n := len(runs)
		if c.smoke || n >= maxSetups || (n >= minSetups && time.Since(start) >= setupBudget) {
			return runs, nil
		}
	}
}

// policiesPerClass sizes the campus bed's policy table: the paper's 10 per
// class (flow_churn multiplies it by 10).
func (c runConfig) policiesPerClass() int {
	if c.smoke {
		return 2
	}
	return 10
}

func (c runConfig) measure() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// warmup is the discarded lead-in: 2 s at full size, shorter in smoke runs.
func (c runConfig) warmup() time.Duration {
	if w := c.measure() * 15 / 100; w < 2*time.Second {
		return w
	}
	return 2 * time.Second
}

// nullRun is how long the generator runs alone for the harness self-check.
func (c runConfig) nullRun() time.Duration {
	if n := c.measure() / 20; n < 500*time.Millisecond {
		return n
	}
	return 500 * time.Millisecond
}

// heldHeapMB is live_heap_mb: the heap still allocated after two forced
// collections (the second empties the sync.Pool victim caches the first
// leaves), taken while the bed is alive: the soft state the run holds.
func heldHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// fingerprint identifies the host and inputs a result came from. Results
// are comparable only when everything but the commit matches.
type fingerprint struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func hostFingerprint(seed int64) fingerprint {
	fp := fingerprint{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Kernel: "unknown", Commit: "unknown", Seed: seed,
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var b []byte
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		fp.Kernel = string(b)
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				fp.Commit = s.Value
			}
		}
	}
	if fp.Commit == "unknown" {
		// go run does not stamp the binary; in a git work tree HEAD says.
		if head, err := os.ReadFile(".git/HEAD"); err == nil {
			ref := strings.TrimSpace(string(head))
			if name, ok := strings.CutPrefix(ref, "ref: "); ok {
				if sha, err := os.ReadFile(filepath.Join(".git", name)); err == nil {
					ref = strings.TrimSpace(string(sha))
				}
			}
			fp.Commit = ref
		}
	}
	return fp
}

// comparable reports whether two results may be set side by side.
func (f fingerprint) comparable(o fingerprint) bool {
	f.Commit, o.Commit = "", ""
	return f == o
}

// result is one workload run.
type result struct {
	Workload    string      `json:"workload"`
	Fingerprint fingerprint `json:"fingerprint"`
	Attempted   int64       `json:"attempted"`
	Failed      int64       `json:"failed"`
	// FailedChecks names every correctness check that did not hold.
	FailedChecks []string           `json:"failed_checks"`
	E2E          map[string]float64 `json:"end_to_end"`
	Layer        map[string]float64 `json:"per_layer,omitempty"`
	// SampleCounts gives the number of samples behind each timing metric.
	SampleCounts map[string]int `json:"sample_counts"`
	Notes        []string       `json:"notes"`
}

func newResult(workload string, cfg runConfig) *result {
	return &result{
		Workload: workload, Fingerprint: hostFingerprint(cfg.seed),
		E2E: make(map[string]float64), Layer: make(map[string]float64),
		SampleCounts: make(map[string]int),
	}
}

// check records a failed correctness check; a nil error is a pass.
func (r *result) check(name string, err error) {
	if err != nil {
		r.FailedChecks = append(r.FailedChecks, name+": "+err.Error())
	}
}

func (r *result) notef(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *result) samples(metric string, n int) { r.SampleCounts[metric] = n }

// setup reports the median set-up and its three stages.
func (r *result) setup(runs []setupTimes) {
	pick := func(f func(setupTimes) time.Duration) float64 {
		xs := make([]float64, len(runs))
		for i, s := range runs {
			xs[i] = f(s).Seconds()
		}
		return median(xs)
	}
	r.E2E["setup_s"] = pick(setupTimes.total)
	r.Layer["setup.bed_s"] = pick(func(s setupTimes) time.Duration { return s.bed })
	r.Layer["setup.initial_solve_s"] = pick(func(s setupTimes) time.Duration { return s.solve })
	r.Layer["setup.initial_rollout_s"] = pick(func(s setupTimes) time.Duration { return s.rollout })
	r.samples("setup_s", len(runs))
}

// runWorkload dispatches by name.
func runWorkload(name string, cfg runConfig) (*result, error) {
	var res *result
	var err error
	switch name {
	case "steady_chain":
		res, err = runChain(chainSpec{name: name}, cfg)
	case "label_chain":
		res, err = runChain(chainSpec{name: name, labels: true}, cfg)
	case "flow_churn":
		res, err = runChain(chainSpec{name: name, churn: true}, cfg)
	case "live_loopback":
		res, err = runLive(cfg)
	case "control_loop":
		res, err = runControl(cfg)
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return res, nil
}

// metricsOf returns the metric set a run reports: end-to-end when
// untraced, per-layer when traced. Every defined metric is present.
func (r *result) metricsOf(traced bool) ([]metricDef, map[string]float64) {
	if traced {
		return perLayer, r.Layer
	}
	return endToEnd, r.E2E
}

// print writes the human-readable report of one run.
func (r *result) print(traced bool) {
	fp := r.Fingerprint
	fmt.Printf("workload %s  seed %d  %s  %d cpus (GOMAXPROCS %d)  kernel %s  commit %s\n",
		r.Workload, fp.Seed, fp.GoVersion, fp.NumCPU, fp.GOMAXPROCS, fp.Kernel, fp.Commit)
	defs, vals := r.metricsOf(traced)
	if traced {
		// The traced run still shows what the untraced half measured.
		for _, d := range endToEnd {
			fmt.Printf("  %-40s %14.4f %s\n", d.Name, r.E2E[d.Name], d.Unit)
		}
	}
	for _, d := range defs {
		fmt.Printf("  %-40s %14.4f %s\n", d.Name, vals[d.Name], d.Unit)
	}
	keys := make([]string, 0, len(r.SampleCounts))
	for k := range r.SampleCounts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  samples: %s n=%d\n", k, r.SampleCounts[k])
	}
	for _, n := range r.Notes {
		fmt.Printf("  note: %s\n", n)
	}
	fmt.Printf("  attempted %d, failed %d\n", r.Attempted, r.Failed)
	for _, c := range r.FailedChecks {
		fmt.Printf("  CHECK FAILED %s\n", c)
	}
}

func (r *result) correct() bool { return len(r.FailedChecks) == 0 && r.Failed == 0 }

// driverLine is the one-object summary the benchmark contract asks for.
func (r *result) driverLine(traced bool) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals := r.metricsOf(traced)
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, make(map[string]mv, len(defs))}
	for _, d := range defs {
		out.Metrics[d.Name] = mv{vals[d.Name], d.Unit}
	}
	buf, err := json.Marshal(out)
	if err != nil {
		panic(err)
	}
	return string(buf)
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Results []*result `json:"results"`
}

func main() {
	workload := flag.String("workload", "", "run one workload (default: all five)")
	seed := flag.Int64("seed", 20, "seed of every generated input")
	seconds := flag.Float64("seconds", 15, "measured seconds per workload")
	trace := flag.Int("trace", 0, "1: traced run, prints per-layer metrics and writes bench/results/trace_<workload>.json")
	calibrate := flag.Int("calibrate", 0, "run each workload this many times (seeds seed, seed+1, ...) and print the spread of every end-to-end metric")
	out := flag.String("out", "", "also write the results as JSON to this file")
	compare := flag.String("compare", "", "old.json,new.json: compare two -out files against the bounds")
	smoke := flag.Bool("smoke", false, "a pass at a fraction of the size that only exercises the code and the checks (sets -seconds 0.1)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if *compare != "" {
		os.Exit(runCompare(*compare))
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace != 0, resultsDir: "bench/results", smoke: *smoke}
	if cfg.smoke {
		cfg.seconds = 0.1
	}
	names := []string{*workload}
	if *workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	if *calibrate > 0 {
		os.Exit(runCalibrate(names, cfg, *calibrate))
	}
	if *workload == "" {
		os.Exit(runEach(names))
	}

	res, err := runWorkload(*workload, cfg)
	if err == nil && *out != "" {
		err = mergeInto(*out, res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	res.print(cfg.trace)
	fmt.Println(res.driverLine(cfg.trace))
	if !res.correct() {
		os.Exit(1)
	}
}

// runEach runs every workload in a process of its own, with this
// process's flags, as the driver and -calibrate do: workloads that share a
// process share a heap, and the later ones read slower for it.
func runEach(names []string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, name := range names {
		cmd := exec.Command(exe, append(os.Args[1:], "-workload", name)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			code = 1
		}
	}
	return code
}

// mergeInto writes res into the result file at path, replacing an earlier
// result of the same workload and keeping those of the others.
func mergeInto(path string, res *result) error {
	var file resultFile
	if buf, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(buf, &file); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	kept := file.Results[:0]
	for _, r := range file.Results {
		if r.Workload != res.Workload {
			kept = append(kept, r)
		}
	}
	file.Results = append(kept, res)
	buf, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (the exclusive method).
func quartiles(values []float64) (q1, q2, q3 float64) {
	x := sortedCopy(values)
	n := len(x)
	if n < 2 {
		return x[0], x[0], x[0]
	}
	cut := func(i int) float64 {
		j, delta := i*(n+1)/4, i*(n+1)%4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return (x[j-1]*float64(4-delta) + x[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// runCalibrate runs every workload `runs` times on successive seeds, each
// in a process of its own as the benchmark's driver does, and prints per
// end-to-end metric the median, the quartiles, the spread (IQR over
// median) and the bound that spread suggests: max(0.10, 2 x spread).
func runCalibrate(names []string, cfg runConfig, runs int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	code := 0
	fp := hostFingerprint(cfg.seed)
	fmt.Printf("calibration: %d runs per workload, %.0f s each, seeds %d..%d, %s, %d cpus, kernel %s, commit %s\n",
		runs, cfg.seconds, cfg.seed, cfg.seed+int64(runs)-1, fp.GoVersion, fp.NumCPU, fp.Kernel, fp.Commit)
	for _, name := range names {
		vals := make(map[string][]float64)
		for i := 0; i < runs; i++ {
			seed := cfg.seed + int64(i)
			out, err := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(cfg.seconds)).Output()
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var line struct {
				Correct bool
				Metrics map[string]struct{ Value float64 }
			}
			if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &line); jerr != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v, %v\n%s", name, seed, err, jerr, out)
				return 1
			}
			if !line.Correct {
				fmt.Printf("%s seed %d: not correct\n%s", name, seed, out)
				code = 1
			}
			for _, d := range endToEnd {
				vals[d.Name] = append(vals[d.Name], line.Metrics[d.Name].Value)
			}
		}
		fmt.Printf("%s\n  %-22s %14s %14s %14s %8s %8s %s\n", name, "metric", "median", "q1", "q3", "spread", "bound", "suggested")
		for _, d := range endToEnd {
			q1, q2, q3 := quartiles(vals[d.Name])
			spread := (q3 - q1) / q2
			suggested := 2 * spread
			if suggested < 0.10 {
				suggested = 0.10
			}
			fmt.Printf("  %-22s %14.4f %14.4f %14.4f %8.4f %8.2f %8.2f\n", d.Name, q2, q1, q3, spread, d.Bound, suggested)
		}
	}
	return code
}

// runCompare sets two result files side by side, metric by metric, and
// marks every end-to-end metric that worsened by more than its bound.
func runCompare(arg string) int {
	paths := strings.Split(arg, ",")
	if len(paths) != 2 {
		fmt.Fprintln(os.Stderr, "bench: -compare wants old.json,new.json")
		return 2
	}
	var files [2]resultFile
	for i, p := range paths {
		buf, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(buf, &files[i])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	code := 0
	for _, old := range files[0].Results {
		for _, cur := range files[1].Results {
			if old.Workload != cur.Workload {
				continue
			}
			if !old.Fingerprint.comparable(cur.Fingerprint) {
				fmt.Fprintf(os.Stderr, "bench: %s: refusing to compare results from different hosts or seeds:\n  old %+v\n  new %+v\n",
					old.Workload, old.Fingerprint, cur.Fingerprint)
				return 2
			}
			fmt.Printf("%s  (old %s, new %s)\n", old.Workload, old.Fingerprint.Commit, cur.Fingerprint.Commit)
			for _, d := range endToEnd {
				a, b := old.E2E[d.Name], cur.E2E[d.Name]
				worse := (b - a) / a
				if d.Better == "higher" {
					worse = -worse
				}
				mark := ""
				if worse > d.Bound {
					mark = "  REGRESSION"
					code = 1
				}
				fmt.Printf("  %-22s %14.4f -> %14.4f %s  worse by %+.1f%% (bound %.0f%%)%s\n",
					d.Name, a, b, d.Unit, 100*worse, 100*d.Bound, mark)
			}
		}
	}
	return code
}
