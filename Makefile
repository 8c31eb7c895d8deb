# Developer entry points; CI (.github/workflows/ci.yml) runs the same
# gates in the same order.

GO ?= go

.PHONY: all build test race vet fmt verify-examples chaos fuzz cover check \
	bench bench-smoke bench-compare race-stress race-flake results-check loc

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# vet = the toolchain's vet plus this repository's own analyzers
# (internal/lint via cmd/sdme-vet).
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/sdme-vet ./...

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

# Fuzz smoke: every native fuzz target gets a short budget. The go tool
# accepts exactly one -fuzz target per invocation, hence one line each.
FUZZTIME ?= 20s
fuzz:
	$(GO) test ./internal/packet/ -run '^FuzzUnmarshal$$' -fuzz '^FuzzUnmarshal$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/packet/ -run '^FuzzFragmentReassemble$$' -fuzz '^FuzzFragmentReassemble$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/live/ -run '^FuzzDispatchFrame$$' -fuzz '^FuzzDispatchFrame$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mgmt/ -run '^FuzzWire$$' -fuzz '^FuzzWire$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mgmt/ -run '^FuzzConfigDTO$$' -fuzz '^FuzzConfigDTO$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mgmt/ -run '^FuzzConfigDelta$$' -fuzz '^FuzzConfigDelta$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/controller/ -run '^FuzzJournalStream$$' -fuzz '^FuzzJournalStream$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/controller/ -run '^FuzzRestoreFromJournal$$' -fuzz '^FuzzRestoreFromJournal$$' -fuzztime $(FUZZTIME)

# Coverage profile across all packages, with the per-function summary's
# total line printed at the end.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

# Statically verify the controller plan (candidate sets, loop freedom,
# hot-potato optimality, LB weights) on both example topologies.
verify-examples:
	$(GO) run ./cmd/sdme-topo -topology campus -verify
	$(GO) run ./cmd/sdme-topo -topology waxman -verify

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
# invariants), plus the live worker-pool ordering/shutdown suite and the
# live send path's guards (concurrent injectors on the one socket, inject
# after close, the allocation counts). -count=5 shakes out
# schedule-dependent interleavings.
race-stress:
	$(GO) test -race -count=5 \
		-run 'Stress|WorkerPool|FlowWorkerHash|Inject|ForwarderAllocFree|SinkAllocs' \
		./internal/flowtable/ ./internal/live/

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
# (Figures 4/5, Table III) and the sim rows of the three fault-story CSVs
# (virtual time, deterministic per seed; the live rows are wall-clock
# measurements) (~40 s).
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
	echo "results-check: paper CSVs and the sim rows of recovery.csv failover.csv ha.csv identical"

# The size figure every PR reports (ROADMAP north star): non-test Go lines
# outside the benchmark and the analyzers' fixtures.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' \
		! -path './internal/lint/testdata/*' -print0 | xargs -0 cat | wc -l

check: build fmt vet verify-examples race
