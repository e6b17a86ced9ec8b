GO ?= go

.PHONY: all build test bench-e2e-smoke fuzz-smoke vet fmt-check staticcheck reprolint lint

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# What each target below runs and asserts: docs/ARCHITECTURE.md, "Make targets".

# The repository benchmark (bench/, BENCHMARK.json) at self-test size, every output check on.
bench-e2e-smoke:
	$(GO) run ./bench -smoke

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Short fuzz passes, one per target (go test takes one -fuzz target per run); FUZZTIME=5m to go deeper.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzJournalReplay -fuzztime $(FUZZTIME) ./internal/store/
	$(GO) test -run '^$$' -fuzz FuzzLaneEquivalence -fuzztime $(FUZZTIME) ./internal/fault/
	$(GO) test -run '^$$' -fuzz FuzzCoordinatorModel -fuzztime $(FUZZTIME) ./internal/jobs/
	$(GO) test -run '^$$' -fuzz FuzzStoreFile -fuzztime $(FUZZTIME) ./internal/store/
	$(GO) test -run '^$$' -fuzz FuzzISSEquivalence -fuzztime $(FUZZTIME) ./internal/fault/
	$(GO) test -run '^$$' -fuzz FuzzOutcomeEncoding -fuzztime $(FUZZTIME) ./internal/jobs/
	$(GO) test -run '^$$' -fuzz FuzzShardRecord -fuzztime $(FUZZTIME) ./internal/jobs/
	$(GO) test -run '^$$' -fuzz FuzzSampleNodes -fuzztime $(FUZZTIME) ./internal/fault/
	$(GO) test -run '^$$' -fuzz FuzzRequestNormalize -fuzztime $(FUZZTIME) ./internal/jobs/
	$(GO) test -run '^$$' -fuzz FuzzShardBody -fuzztime $(FUZZTIME) ./internal/server/
	$(GO) test -run '^$$' -fuzz FuzzSnapshotFork -fuzztime $(FUZZTIME) ./internal/leon3/
	$(GO) test -run '^$$' -fuzz FuzzInstRoundTrip -fuzztime $(FUZZTIME) ./internal/asm/

# Optional locally (the container may not ship it); CI installs and runs it.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

# The repo's own analyzers (internal/lint); zero findings is the only passing state.
reprolint:
	$(GO) run ./cmd/reprolint ./...

lint: vet fmt-check staticcheck reprolint
