GO ?= go

# Tolerated fractional throughput regression for bench-check (0.5 = 50%).
# Calibrated to the measured infrastructure noise of shared runners:
# hypervisor frequency/memory-bandwidth phases swing the memory-heavy
# campaign benchmarks by up to ~45% for tens of minutes at a time, which
# best-of-3 sampling and retry cooldowns cannot fully ride out. At 50%
# the gate still catches every architectural regression it exists for —
# losing the bit-parallel engine (-84% exp/s), checkpoint forking, or
# pooling are all far outside it — while the committed BENCH_PR9.json
# stays the precise quiet-hardware record. Tighten to 0.15 when gating
# on dedicated hardware: BENCH_TOLERANCE=0.15 make bench-check.
BENCH_TOLERANCE ?= 0.5

.PHONY: all build test bench bench-smoke bench-e2e-smoke bench-json bench-json-smoke bench-check serve-smoke shard-smoke crash-smoke hybrid-smoke fuzz-smoke vet fmt-check staticcheck reprolint lint

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# Full benchmark harness: regenerates every table and figure of the paper
# plus the checkpointed-vs-from-reset campaign engine comparison.
bench:
	$(GO) test -bench=. -benchmem .

# One iteration of every benchmark, no unit tests: cheap CI smoke that
# exercises the checkpointed campaign speedup path on every PR.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .

# The repository benchmark (bench/, BENCHMARK.json) at its self-test
# size: two small ops per workload, untraced then traced, with every
# output check on — golden pins, the from-reset scalar reference, the
# service's byte-identity against in-process execution. Seconds, not
# minutes; exits nonzero on any failed op or check.
bench-e2e-smoke:
	$(GO) run ./bench -smoke

# Full benchmark suite distilled to JSON (benchmark name -> ns/op plus
# custom metrics). BENCH_PR9.json is the committed perf baseline (cut
# with the bit-parallel campaign engine on, and including the hybrid
# router's ISS campaign engine); rerun this target on comparable
# hardware to refresh it. BENCH_PR2.json (pre-batching) and
# BENCH_PR6.json (pre-hybrid) stay committed as the historical records
# behind DESIGN.md's speedup tables.
# -count 3 folds throughput metrics best-of-3 (see cmd/benchjson): the
# baseline records the machine's uncontended speed, and bench-check
# measures with the same estimator.
bench-json:
	$(GO) run ./cmd/benchjson -benchtime 2s -count 3 -out BENCH_PR9.json

# CI variant: one iteration of every benchmark, JSON to stdout. Validates
# the whole suite and the benchjson pipeline without committing numbers.
bench-json-smoke:
	$(GO) run ./cmd/benchjson -benchtime 1x -out -

# Benchmark-regression gate: measure the speed-critical benchmarks (the
# engine throughput set: RTL cycles/s, ISS inst/s, campaign exp/s) and
# fail if any throughput metric regresses more than BENCH_TOLERANCE
# against the committed BENCH_PR9.json baseline — cut with the
# bit-parallel (PPSFP) engine on, so CampaignCheckpointed gates at the
# batched throughput (~6x the BENCH_PR2 scalar engine) and a regression
# that silently disabled batching would trip it immediately.
# CampaignTransient and CampaignHybrid are in the gate set too: the
# hybrid benchmark gates the ISS campaign engine's exp/s (the hybrid
# router's prediction pass) and logs the ISS-vs-RTL speedup ratio in
# the JSON without gating it. Throughput is measured
# best-of-3 (-count 3) to reject neighbour-load / frequency-throttle
# noise on shared runners: interference only ever lowers a sample, so
# the max of 3 is the cleanest estimate, while a real code regression
# depresses all 3 and still trips the gate. Because throttle episodes
# last minutes — longer than one gate run — a failed attempt retries
# after a cooldown (up to BENCH_ATTEMPTS attempts): infra noise clears
# between attempts, a genuine regression fails every one.
BENCH_ATTEMPTS ?= 3
bench-check:
	@i=1; while :; do \
		if $(GO) run ./cmd/benchjson \
			-bench '^Benchmark(RTLExecution|ISSExecution|CampaignCheckpointed|CampaignFromReset|CampaignTransient|CampaignHybrid)$$' \
			-benchtime 2s -count 3 -out - -baseline BENCH_PR9.json -max-regress $(BENCH_TOLERANCE); then \
			exit 0; \
		fi; \
		if [ $$i -ge $(BENCH_ATTEMPTS) ]; then \
			echo "bench-check: failed $$i attempt(s); regression is persistent" >&2; exit 1; \
		fi; \
		echo "bench-check: attempt $$i failed; cooling down 60s before retry" >&2; \
		i=$$((i+1)); sleep 60; \
	done

# Hermetic service smoke: builds faultserverd and faultcampaign, boots
# the daemon (sharded + durable) on an ephemeral port, submits one small
# campaign over HTTP twice, and asserts one engine execution plus
# byte-identical results between the server and `faultcampaign -json` —
# then scrapes /metrics and asserts the Prometheus exposition covers
# every instrumented layer with sane values.
serve-smoke:
	$(GO) run ./cmd/servesmoke

# Hermetic sharding smoke: boots a remote-only shard coordinator plus 3
# worker processes, runs a Figure-4-sized campaign through the
# distributed shard path, and asserts byte-identical results against the
# unsharded CLI (and the in-process -shards mode, both targets).
shard-smoke:
	$(GO) run ./cmd/shardsmoke

# Hermetic crash-recovery smoke: boots a durable (-data-dir) coordinator
# plus 3 workers, SIGKILLs the coordinator at three journal-growth-gated
# points mid-campaign (one cycle also SIGKILLs a worker), restarts it on
# the same address each time, and asserts the recovered merged result is
# byte-identical to an undisturbed unsharded run — then proves a final
# restart serves the finished result straight from the on-disk store
# with zero engine executions. Kill points are randomized; pin a failing
# schedule with `go run ./cmd/crashsmoke -seed N` (the seed is logged).
crash-smoke:
	$(GO) run ./cmd/crashsmoke

# Hermetic hybrid-router smoke: executes a real hybrid (ISS-predicted,
# RTL-audited) campaign and audits the outcome's routing contract, then
# proves through the built CLI that `-engine hybrid -rtl-audit 1.0` is
# byte-identical to the pure-RTL campaign and that a 3-way sharded
# hybrid run is byte-identical to the unsharded one.
hybrid-smoke:
	$(GO) run ./cmd/hybridsmoke

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Short fuzz passes, one per target (go test takes one -fuzz target per
# run). FuzzJournalReplay, the WAL replay path: arbitrary journal bytes
# must never panic replay, and truncation to the longest valid prefix
# must be idempotent (re-replaying the truncated file is clean and
# lossless). FuzzLaneEquivalence, the campaign engine: on generated
# programs, any node, model and instant through the ladder-batched
# engine equals the from-reset scalar reference byte for byte.
# 10s each is a smoke, not a campaign; run longer locally with
# `go test -fuzz FuzzJournalReplay -fuzztime 5m ./internal/store/` or
# `go test -fuzz FuzzLaneEquivalence -fuzztime 5m ./internal/fault/`.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzJournalReplay -fuzztime $(FUZZTIME) ./internal/store/
	$(GO) test -run '^$$' -fuzz FuzzLaneEquivalence -fuzztime $(FUZZTIME) ./internal/fault/

# staticcheck is optional locally (the container may not ship it); CI
# installs and runs it unconditionally via its action.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

# The repo's own analyzers (internal/lint): determinism, content-address
# stability, observability nil-safety, engine-construction seams. Zero
# findings is the only passing state; audited exceptions live as
# //lint:allow comments next to their justification, not here.
reprolint:
	$(GO) run ./cmd/reprolint ./...

lint: vet fmt-check staticcheck reprolint
