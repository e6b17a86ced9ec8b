GO ?= go

.PHONY: all build test bench bench-smoke bench-e2e-smoke serve-smoke shard-smoke crash-smoke hybrid-smoke fuzz-smoke vet fmt-check staticcheck reprolint lint

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# Full benchmark harness: regenerates every table and figure of the paper
# plus the checkpointed-vs-from-reset campaign engine comparison.
bench:
	$(GO) test -bench=. -benchmem .

# One iteration of every benchmark, no unit tests: the paper-reproduction
# record (every table and figure, the checkpointed-vs-from-reset pair)
# still runs end to end on every push. Timing is not gated here; the
# repository benchmark (bench/, BENCHMARK.json) owns performance.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .

# The repository benchmark (bench/, BENCHMARK.json) at its self-test
# size: two small ops per workload, untraced then traced, with every
# output check on — golden pins, the from-reset scalar reference, the
# service's byte-identity against in-process execution. Seconds, not
# minutes; exits nonzero on any failed op or check.
bench-e2e-smoke:
	$(GO) run ./bench -smoke

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
# FuzzCoordinatorModel, the shard lease protocol: any interleaving of
# lease/progress/complete/fail/reclaim and malformed or duplicate
# results, held to a reference model — every index merged exactly once,
# the attempt and reclaim bounds honoured, termination.
# FuzzStoreFile, the result store: arbitrary bytes where an entry belongs
# (bit flips, truncations, mangled headers), found by Open or behind an
# open store's back, are never served, are deleted, and leave the key
# free to be Put again. It fsyncs for real, so it runs tens of inputs a
# second, not thousands.
# FuzzISSEquivalence, the ISS campaign engine: on generated programs
# (windows, traps, annulled slots), any node, model and instant, native
# or pinned timebase, through the golden log, forks at activation, shared
# verdicts and predecoded text equals the from-reset reference.
# 10s each is a smoke, not a campaign; run longer locally with
# `go test -fuzz FuzzJournalReplay -fuzztime 5m ./internal/store/`,
# `go test -fuzz FuzzLaneEquivalence -fuzztime 5m ./internal/fault/`,
# `go test -fuzz FuzzCoordinatorModel -fuzztime 5m ./internal/jobs/`,
# `go test -fuzz FuzzStoreFile -fuzztime 5m ./internal/store/` or
# `go test -fuzz FuzzISSEquivalence -fuzztime 5m ./internal/fault/`.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzJournalReplay -fuzztime $(FUZZTIME) ./internal/store/
	$(GO) test -run '^$$' -fuzz FuzzLaneEquivalence -fuzztime $(FUZZTIME) ./internal/fault/
	$(GO) test -run '^$$' -fuzz FuzzCoordinatorModel -fuzztime $(FUZZTIME) ./internal/jobs/
	$(GO) test -run '^$$' -fuzz FuzzStoreFile -fuzztime $(FUZZTIME) ./internal/store/
	$(GO) test -run '^$$' -fuzz FuzzISSEquivalence -fuzztime $(FUZZTIME) ./internal/fault/

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
