#!/bin/sh
# Pre-merge gate. `go test` is the gate: every smoke that used to drive a
# binary from here (campaign / sampled / explore resume, checkpoint
# sharing, telemetry artifacts, and the chaos gate's fleet of real
# processes with its kill -9) is a Go test under cmd/, run by the two
# test lines below. What stays in shell is what needs the toolchain
# itself: gofmt, vet, build, -fuzz, and a repeated -race run.
# Run from the repo root: scripts/check.sh
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "FAIL: files need gofmt:"
    echo "$unformatted"
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

echo "== go test (allocation budgets and overhead gates skip themselves under -race) =="
go test ./...

# A gate that names its test passes vacuously once the test is renamed:
# `go test -run` of nothing prints "[no tests to run]" and `-fuzz` of
# nothing prints PASS, both with status 0. So each named gate first
# proves its target exists.
gate_exists() { # <test or fuzz name> <package>
    if ! go test -list "^$1\$" "$2" | grep -qx "$1"; then
        echo "FAIL: gate names a test that does not exist: $1 in $2"
        exit 1
    fi
}

echo "== fast interpreter vs Step fuzz smoke (every opcode, every sink kind) =="
gate_exists FuzzRunMatchesStep ./internal/emu/
go test -run '^$' -fuzz '^FuzzRunMatchesStep$' -fuzztime 10s ./internal/emu/

echo "== trace decoder fuzz smoke (typed errors, never panic) =="
gate_exists FuzzRead ./internal/trace/
go test -run '^$' -fuzz '^FuzzRead$' -fuzztime 10s ./internal/trace/

echo "== calendar event queue vs heap oracle fuzz smoke (schedule/pop/jump/drop scripts) =="
gate_exists FuzzEventQueueMatchesHeap ./internal/core/
go test -run '^$' -fuzz '^FuzzEventQueueMatchesHeap$' -fuzztime 10s ./internal/core/

echo "== slot set vs naive scan fuzz smoke (set/clear/firstFrom/collect scripts) =="
gate_exists FuzzSlotSetMatchesNaive ./internal/core/
go test -run '^$' -fuzz '^FuzzSlotSetMatchesNaive$' -fuzztime 10s ./internal/core/

echo "== removal audit is still in the suite (it ran twice above, under ./...) =="
gate_exists TestAudit ./internal/audit/

echo "== shared frozen memory images under concurrent clones (race, repeated) =="
gate_exists TestMemoryFrozenConcurrentClones ./internal/isa
go test -race -count=10 -run 'TestMemoryFrozenConcurrentClones' ./internal/isa

echo "check: all gates passed"
