# Build and verification targets. `make check` is the full gate: build,
# vet, tests, and the race detector over the internal packages.

GO ?= go

.PHONY: all build test vet race check bench bench-go ladder clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./internal/...

check: build vet test race

# bench runs the fault-injection sweep, writing its JSON report artifact;
# bench-go runs the package-level Go benchmarks (the gradient hot path's are
# in internal/ml).
bench:
	$(GO) run ./cmd/corgibench -faults -out BENCH_faults.json

bench-go:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# ladder runs the traced per-layer pass on the workload where the TRAIN
# pipeline, not the gradient, does the work: the before/after procedure for
# changes to block decode, the shuffle operators, the clock or the executor.
# It builds into .bench_build/ and writes spans under benchmark/out/.
ladder:
	sh benchmark/run.sh --workload train_narrow --trace 1

clean:
	$(GO) clean ./...
