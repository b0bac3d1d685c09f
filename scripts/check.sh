#!/bin/sh
# Pre-merge gate. `go test` is the gate: every smoke that used to drive a
# binary from here is a Go test under cmd/, run by the two test lines
# below. What stays in shell is what needs toolchain flags: gofmt, vet,
# build, the race-enabled run, the 10 s -fuzz smokes and the repeated
# -race runs. The last two take their targets from
# internal/audit/gates.txt, where the removal audit (run by both test
# lines) proves each target exists: a renamed one fails `go test ./...`
# instead of passing here vacuously.
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

# One entry a line: <kind> <package dir> <name> <reason>; a `test` entry
# ran above and needs no flag.
while read -r kind dir name reason; do
    case "$kind" in
    fuzz)
        echo "== fuzz smoke, 10 s: $name in $dir: $reason =="
        go test -run '^$' -fuzz "^$name\$" -fuzztime 10s "./$dir" </dev/null
        ;;
    race*)
        echo "== race, ${kind#race} runs: $name in $dir: $reason =="
        go test -race -count="${kind#race}" -run "^$name\$" "./$dir" </dev/null
        ;;
    esac
done <internal/audit/gates.txt

echo "check: all gates passed"
