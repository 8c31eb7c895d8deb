# Developer entry points; CI (.github/workflows/ci.yml) runs the same
# gates in the same order.

GO ?= go

.PHONY: all build test race vet fmt verify-examples chaos fuzz cover check \
	bench bench-smoke bench-compare race-stress race-flake results-check loc cross

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# vet = the toolchain's vet plus this repository's own analyzers
# (internal/lint via cmd/sdme-vet). sdme-vet loads the files built for
# the GOOS in its environment, so a second run for darwin over the
# cross-built packages (see cross) analyzes the non-Linux variants, such
# as internal/live/batch_other.go; -exec hands GOOS to the analyzer, not
# to the build of it.
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/sdme-vet ./...
	$(GO) run -exec 'env GOOS=darwin' ./cmd/sdme-vet $(CROSS_PKGS)

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Fault-injection suite under the race detector, twice: the election and
# replication fences (internal/ha), reconnect storms, ack loss, wedged
# devices, epoch-fenced rollout and the full recovery-convergence
# schedule on both substrates. -count=2 defeats test
# caching and shakes out order-dependent flakes. The second block re-runs
# the survivability experiments (local fast failover, controller
# kill/restart, replicated-HA takeover, a re-election mid-commit, and the
# composite of crash + leader kill + crash on both substrates) across a
# seed matrix so the acceptance claims hold beyond one lucky seed. The third block is the
# leader-kill matrix: every chaos seed crosses every -kill-leader-at
# phase, so the assassination lands at different points of the lease
# cycle (mid-heartbeat, mid-replication, right after a rollout).
CHAOS_SEEDS ?= 7 23 41
KILL_LEADER_AT ?= 150000 400000
chaos:
	$(GO) test -race -count=2 ./internal/faultinject/ ./internal/ha/
	$(GO) test -race -count=2 -run 'Chaos|Recovery|Reconnect|Wedge|TwoPhase' \
		./internal/mgmt/ ./internal/live/ ./internal/experiments/
	@for seed in $(CHAOS_SEEDS); do \
		echo "== chaos seed $$seed =="; \
		SDME_CHAOS_SEED=$$seed $(GO) test -race -count=1 -run 'Failover|Restart|HA' \
			./internal/experiments/ || exit 1; \
	done
	@for seed in $(CHAOS_SEEDS); do \
		for at in $(KILL_LEADER_AT); do \
			echo "== leader kill: seed $$seed, t=$$at us =="; \
			$(GO) run ./cmd/sdme-sim -controllers 3 -seed $$seed -kill-leader-at $$at || exit 1; \
		done; \
	done

# Fuzz smoke: every native fuzz target gets a short budget. The targets are
# read from the tree (each `func Fuzz...` in a _test.go file outside
# testdata), so a new or deleted target needs no edit here. The go tool
# accepts exactly one -fuzz target per invocation, hence the loop.
# Minimizing a new interesting input may take 60 s by default, more than a
# target's whole budget: without the cap, FuzzRestoreFromJournal spends it
# all minimizing its first one (grown from its journal seed), at ~8 execs.
FUZZTIME ?= 20s
fuzz:
	@grep -rHo --include='*_test.go' --exclude-dir=testdata '^func Fuzz[A-Za-z0-9_]*' . | sort | \
	while IFS=: read -r file fn; do \
		name=$${fn#func }; pkg=$${file%/*}; \
		echo "== $$pkg $$name =="; \
		$(GO) test "$$pkg" -run "^$$name\$$" -fuzz "^$$name\$$" -fuzztime $(FUZZTIME) -fuzzminimizetime 1s || exit 1; \
	done

# Coverage profile across all packages, with the per-function summary's
# total line printed at the end.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

# Statically verify the controller plan (candidate sets, loop freedom,
# hot-potato optimality, LB weights) on both example topologies, then run
# every program under examples/: each must exit 0.
verify-examples:
	$(GO) run ./cmd/sdme-topo -topology campus -verify
	$(GO) run ./cmd/sdme-topo -topology waxman -verify
	$(GO) run ./cmd/sdme-topo -topology campus -audit
	$(GO) run ./cmd/sdme-topo -topology waxman -audit
	$(GO) run ./cmd/sdme-topo -topology campus -observe
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/sdme-topo -topology waxman -export "$$tmp/export.json"
	@for ex in examples/*/; do \
		echo "== $$ex =="; \
		$(GO) run "./$$ex" >/dev/null || exit 1; \
	done

# The repository benchmark (bench/README.md): five time-bounded workloads
# over the real dataplane nodes, the live runtime and the control loop
# (Recompute → delta 2PC rollout), every number measured. bench-smoke runs
# every code path and every in-command correctness check (conservation,
# hop sequence, delta equivalence, converged) in a couple of seconds; its
# numbers mean nothing, its exit code does.
bench:
	$(GO) run ./bench

bench-smoke:
	$(GO) run ./bench -smoke

# The trajectory (ROADMAP item 1): every PR that touches performance adds a
# BENCH_<pr>.json at the repo root (`go run ./bench -trace 1 -out FILE`:
# the untraced half's end-to-end metrics and the traced half's per-layer
# ones, with the host fingerprint). This compares the two newest against
# the BENCHMARK.json bounds; it refuses files from different hosts or seeds.
bench-compare:
	@set -- $$(ls BENCH_*.json | sort -V | tail -2); \
	$(GO) run ./bench -compare "$$1,$$2"

# Concurrency stress under the race detector: 8 writer goroutines + a
# sweeper on the sharded tables (duplicate tunnel-ID and resurrection
# invariants), the tables' churn and index guards (allocation-free
# insert/label/sweep cycles, probe clusters under removal), plus the live
# worker-pool ordering/shutdown suite, a device's own sweep running beside
# its workers, and the live send path's guards (concurrent injectors on
# the one socket, inject after close, the allocation counts, the batch
# edge cases: a refused or oversize frame mid-batch, a cut datagram, a
# command after a burst, a sink's errors), and the metrics reads: a scrape
# right after traffic with no device woken, scrapes while a device's
# tables are rebuilt by Install, and a scrape of a wedged device. Last,
# the packet pool's tests: goroutines on every P taking, stamping and
# putting back packets, with exact counts. And the network functions:
# 8 goroutines sharing one instance of each, as a live middlebox's workers
# do, with exact counts, and their steady-state allocation guards.
# -count=5 shakes out schedule-dependent interleavings.
race-stress:
	$(GO) test -race -count=5 \
		-run 'Stress|AllocFree|IndexSurvives|WorkerPool|FlowWorkerHash|Inject|SinkAllocs|IdleFlowsExpire|Batch|SinkCountsErrors|Scrape|TestPool|NFConcurrent' \
		./internal/flowtable/ ./internal/live/ ./internal/packet/ ./internal/nf/

# Flake hunt for the packages that cross a wire or a clock: 20 passes
# under the race detector at GOMAXPROCS 1 and 2, where a test that waits
# on one side of a connection and reads counters on the other shows up.
# -short trims the single-threaded LP property tests, not the wire tests;
# -p 1 runs the packages one after another, so the hunt finds ordering
# bugs rather than one package starving another's timers.
race-flake:
	@for p in 1 2; do \
		echo "== GOMAXPROCS=$$p =="; \
		GOMAXPROCS=$$p $(GO) test -p 1 -race -short -count=20 \
			./internal/mgmt/ ./internal/controller/ ./internal/ha/ ./internal/live/ || exit 1; \
	done

# Same behaviour, checked: regenerate the results into a temp dir and
# compare, byte for byte against the committed ones, the three paper CSVs
# (Figures 4/5, Table III), the sim rows of the three fault-story CSVs
# (virtual time, deterministic per seed; the live rows are wall-clock
# measurements) and the report, ablation tables A-F included, less its
# three kinds of wall-clock line: the "generated <timestamp>" header, the
# "solve time (ms, wall)" row and every "| live |" row (~45 s).
REPORT_WALL = -e ', generated ' -e '^| solve time (ms, wall) |' -e '| live |'
results-check:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/sdme-results -out "$$tmp" >/dev/null || exit 1; \
	for f in figure_campus.csv figure_waxman.csv table3.csv; do \
		cmp "$$tmp/$$f" "results/$$f" || exit 1; \
	done; \
	for f in recovery.csv failover.csv ha.csv; do \
		grep -v '^live,\|,live,' "$$tmp/$$f" > "$$tmp/$$f.sim"; \
		grep -v '^live,\|,live,' "results/$$f" | cmp - "$$tmp/$$f.sim" || exit 1; \
	done; \
	f=EXPERIMENTS.generated.md; \
	grep -v $(REPORT_WALL) "$$tmp/$$f" > "$$tmp/$$f.det"; \
	grep -v $(REPORT_WALL) "results/$$f" | cmp - "$$tmp/$$f.det" || exit 1; \
	echo "results-check: paper CSVs, the sim rows of recovery.csv failover.csv ha.csv and the report's deterministic lines identical"

# Cross-builds. The live fabric batches datagrams with recvmmsg/sendmmsg
# on Linux (sendmmsg's number is per arch) and reads and writes one
# datagram per call elsewhere; building for other systems and arches
# keeps both halves compiling. bench/ stays out: it calls syscall.Uname,
# which only Linux has.
CROSS_PKGS = ./internal/... ./cmd/... ./examples/... .
cross:
	GOOS=darwin GOARCH=amd64 $(GO) build $(CROSS_PKGS)
	GOOS=windows GOARCH=amd64 $(GO) build $(CROSS_PKGS)
	GOOS=linux GOARCH=arm64 $(GO) build $(CROSS_PKGS)
	GOOS=linux GOARCH=386 $(GO) build $(CROSS_PKGS)

# The size figure every PR reports (ROADMAP north star): non-test Go lines
# outside the benchmark and the analyzers' fixtures.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' \
		! -path './internal/lint/testdata/*' -print0 | xargs -0 cat | wc -l

check: build fmt vet verify-examples race
