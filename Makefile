# Development targets for the empart library.

GO ?= go

.PHONY: all build crossbuild vet lint test test-short race parity check fault crash fuzz-smoke microbench table1 examples clean

all: build lint test

# The default verification path: compile (native and cross), lint, full tests.
check: build crossbuild lint test

# The benchmark harness is its own module (perfbench/, replace => ../), so
# the root ./... pattern skips it; compile and vet it too, so a facade change
# that breaks the benchmark fails here. -o /dev/null keeps the single main
# package from dropping a binary into the tree.
build:
	$(GO) build ./...
	$(GO) -C perfbench build -o /dev/null ./...
	$(GO) -C perfbench vet ./...

# Cross-compile smoke: O_DIRECT and the writeback kick are gated by build tags
# (the kick to linux/{amd64,arm64,riscv64}), and their stubs promise the rest
# of the tree compiles unchanged everywhere else. darwin exercises the !linux
# branches (direct_other.go, writeback_other.go), linux/386 the
# unsupported-arch branch of writeback_other.go.
crossbuild:
	GOOS=darwin GOARCH=arm64 $(GO) build ./...
	GOOS=linux GOARCH=386 $(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis: gofmt over the tracked Go files and go vet always;
# staticcheck when installed (the repo takes no module dependencies, so the
# binary is opportunistic, not vendored).
lint: vet
	@unformatted=$$(git ls-files '*.go' | grep -v '^\.bench_build/' | xargs gofmt -l); \
	if [ -n "$$unformatted" ]; then \
		echo "lint: gofmt -l lists files that need formatting:"; \
		echo "$$unformatted"; \
		exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; ran gofmt and go vet only"; \
	fi

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# The short suite under the race detector. The engine is concurrent — the
# async pipeline's write worker and prefetch goroutines, the parallel sharded
# engine's workers, and the two-goroutine in-memory run sort — so this guards
# those alongside the harness plumbing (tracer, disk registry, CLI paths).
race:
	$(GO) test -race -short ./...

# The parallel-engine parity contract, standalone and unabridged: for every
# backend and workers in {1, 2, P}, outputs, Stats, and traces must be
# bit-identical, under the race detector, including the GOMAXPROCS=1
# schedule and the shard fault path. `make race` already runs these; this
# target is the explicit blocking gate for CI.
parity:
	$(GO) test -race -count=1 -run 'WorkersParity|WorkersShard|WorkersOutput|ShardFault|EngineMatchesSequential' . ./internal/empar

# The fault matrix under the race detector: injected transient/permanent
# faults and bit-flip corruption across {mem, file, file+pipeline,
# file+direct, file+direct+pipeline}, retry on/off, plus the per-algorithm
# fault sweep and its goroutine-leak checks.
fault:
	$(GO) test -race -count=1 -run 'Fault|Resilien|Corrupt|Retry|Checksum|Backoff|Sticky' . ./internal ./internal/emio

# The crash-recovery harness and the robustness layer around it: the real
# SIGKILL crash/resume matrix over the emsort binary, the checkpoint layer's
# scripted-crash resume tests, the cancellation-timing matrix (every
# algorithm x every backend, with goroutine-leak checks), and the job-layer
# validation — cancellation rows under the race detector.
crash:
	$(GO) test -count=1 -run 'CrashRecovery|SortCheckpointed|SortJob' . ./internal/extsort
	$(GO) test -race -count=1 -run 'Cancellation|BindContext|ENOSPC' .

# Fuzz smoke: each fuzz target runs for ten seconds against its seed corpus
# plus fresh mutations. A failing input is written under the package's
# testdata/fuzz/ and replays in every later `go test` run.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz='^FuzzParseKeys$$' -fuzztime=10s ./cmd/emsort
	$(GO) test -run=NONE -fuzz='^FuzzClassify$$' -fuzztime=10s ./internal/approxsplit
	$(GO) test -run=NONE -fuzz='^FuzzSortRadix$$' -fuzztime=10s ./internal/inmem

microbench:
	$(GO) test -run=NONE -bench=. -benchmem ./...

# Regenerate the paper's Table 1 (markdown on stdout).
table1:
	$(GO) run ./cmd/embench

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/loadbalance
	$(GO) run ./examples/histogram
	$(GO) run ./examples/percentiles

clean:
	$(GO) clean ./...
