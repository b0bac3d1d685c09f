GO ?= go

.PHONY: build test check bench bench-full experiments

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Pre-merge gate: gofmt + vet + build + go test (race-enabled, then plain;
# the removal audit, internal/audit, runs in both) + the fuzz smokes and
# repeated race runs that internal/audit/gates.txt names.
check:
	sh scripts/check.sh

# The repo benchmark: six workloads, one per fidelity tier (see
# benchmark/README.md for -trace, -repeat and -compare).
bench:
	$(GO) run ./benchmark

# Per-figure testing.B sweep of the paper's tables (slow).
bench-full:
	$(GO) test -bench=. -benchmem

experiments:
	$(GO) run ./cmd/experiments -run all
