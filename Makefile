GO ?= go

.PHONY: check lint race bench run-all loc

# Tier-1 gate: lint (gofmt + vet), build, an arm64 cross-build and vet of
# randx (the Go block kernels that stand in for the amd64 vector ones),
# test (including the scale kernel's allocation budget per created
# instance), a build + vet + test of the
# nested perfbench module (which `./...` never reaches; its tests are the
# determinism check on the benchmark's campaign workloads), one iteration of
# every layer microbenchmark so a broken bench fails here (only the packages
# that hold one are linked, and lint has already vetted them), a race pass over the
# fault plane, its attack-side recovery paths, the fleet campaign, and the
# one worker pool (internal/par) with the trial engine that runs on it,
# a few seconds of each native fuzz target (the Bernoulli-threshold closed
# form, the lazily seeded register against math/rand and both contention
# kernels on every path the CPU has against Bool loops in randx, the
# brand-string frequency parser in cpu, the event queue's tick and timer
# order against a linear-scan model in simtime),
# and quick fault-sweep/multiregion/channel-ablation/noise-sweep smoke runs.
# The `eaao attack` variants (main's split of global flags such as -faults
# and -load from the attack subcommand's own included) are pinned by
# TestAttackOutputPinned in cmd/eaao, which `go test ./...` runs.
check: lint
	$(GO) build ./...
	GOARCH=arm64 $(GO) build ./... && GOARCH=arm64 $(GO) vet ./internal/randx
	cd perfbench && $(GO) build -o /dev/null ./... && $(GO) vet ./...
	cd perfbench && $(GO) test ./...
	$(GO) test ./...
	$(GO) test -vet=off -run '^$$' -bench . -benchtime 1x \
		$$(grep -rl --include='*_test.go' '^func Benchmark' internal | xargs dirname | sort -u | sed 's|^|./|')
	$(GO) test -race ./internal/core/... ./internal/faas/... ./internal/par/...
	$(GO) test -race -run 'TestRunTrials|TestRunAll|TestParallelOutputByteIdentical' ./internal/experiments/
	$(GO) test -run '^$$' -fuzz '^FuzzBoolThreshold$$' -fuzztime 3s ./internal/randx/
	$(GO) test -run '^$$' -fuzz '^FuzzLazySeed$$' -fuzztime 3s ./internal/randx/
	$(GO) test -run '^$$' -fuzz '^FuzzContentionKernels$$' -fuzztime 3s ./internal/randx/
	$(GO) test -run '^$$' -fuzz '^FuzzParseBaseFrequency$$' -fuzztime 3s ./internal/cpu/
	$(GO) test -run '^$$' -fuzz '^FuzzSchedulerTicks$$' -fuzztime 3s ./internal/simtime/
	@$(GO) run ./cmd/eaao -quick run faultsweep >/dev/null
	@echo "faultsweep smoke OK"
	@$(GO) run ./cmd/eaao -quick run multiregion >/dev/null
	@echo "multiregion smoke OK"
	@$(GO) run ./cmd/eaao -quick run channelablation >/dev/null
	@echo "channelablation smoke OK"
	@$(GO) run ./cmd/eaao -quick run noisesweep >/dev/null
	@echo "noisesweep smoke OK"

# Fails if any file needs gofmt, then runs vet.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...

# Race-detector pass. The trial engine's jobs=8 determinism test exercises
# the parallel path, so this catches any shared-state leak between trial
# worlds even on a single-core machine.
race:
	$(GO) test -race ./...

# Layer microbenchmarks where perfbench has no boundary (placement, the
# simtime heap with its periodic ticks, randx hashing, lazy stream seeding
# (BenchmarkSeedDraw), single draws (BenchmarkFloat64) and the contention
# kernels on the vector and Go paths (BenchmarkCountBools), fingerprint
# collection, snapshot restore of a busy world). End-to-end and
# per-layer campaign numbers come from perfbench (see perfbench/README.md).
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/...

run-all:
	$(GO) run ./cmd/eaao run all

# Line count of the tracked non-test Go outside the benchmark module: the
# size the design aim "the same behaviour from less code" is measured by.
loc:
	@git ls-files -z '*.go' ':!:*_test.go' ':!:perfbench/**' | xargs -0 cat | wc -l
