GO ?= go

.PHONY: build test check bench bench-full experiments

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Pre-merge gate: vet + build + race-enabled tests + fault-campaign smoke.
check:
	sh scripts/check.sh

# Benchmark snapshot: throughput + campaign speedups (checkpointed,
# sampled and model-pruned) + Fig4 at fixed -benchtime, written to
# BENCH_PR10.json (the reference scripts/check.sh gates against).
bench:
	sh scripts/bench.sh

# Full figure/table benchmark sweep (slow).
bench-full:
	$(GO) test -bench=. -benchmem

experiments:
	$(GO) run ./cmd/experiments -run all
