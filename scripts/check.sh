#!/bin/sh
# Pre-merge gate. `go test` is the gate: every smoke that used to drive a
# binary from here (campaign / sampled / explore resume, checkpoint
# sharing, telemetry artifacts) is a Go test under cmd/, run race-enabled
# by the -race line below. What stays in shell is what needs the
# toolchain itself (gofmt, vet, build, -fuzz) or real processes (the
# chaos gate's kill -9). Run from the repo root: scripts/check.sh
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

echo "== shared frozen memory images under concurrent clones (race, repeated) =="
gate_exists TestMemoryFrozenConcurrentClones ./internal/isa
go test -race -count=10 -run 'TestMemoryFrozenConcurrentClones' ./internal/isa

echo "== distributed campaign chaos gate =="
# The service's acceptance bar (DESIGN.md §10): the same sweep run
# serially and on a coordinator + 3 workers — one of them kill -9'd
# mid-campaign — must complete, produce a byte-identical record store,
# and resuming from the fleet's store must re-execute ZERO cells.
svcdir="$(mktemp -d)"
go build -o "$svcdir/bin/" ./cmd/experiments ./cmd/wibserve ./cmd/wibworker ./cmd/wibtrace
"$svcdir/bin/experiments" -run fig4 -bench gzip,art,treeadd -scale test \
    -instr 500000 -parallel 4 -cache-dir "$svcdir/serial" -progress=false \
    >"$svcdir/serial.out" 2>"$svcdir/serial.err"
"$svcdir/bin/wibserve" -addr 127.0.0.1:0 -cache-dir "$svcdir/dist" \
    -lease-ttl 2s -span-log "$svcdir/spans.jsonl" \
    >"$svcdir/serve.out" 2>"$svcdir/serve.err" &
servepid=$!
i=0
while [ $i -lt 100 ] && ! grep -q 'listening on' "$svcdir/serve.out" 2>/dev/null; do
    sleep 0.1; i=$((i+1))
done
url="http://$(sed -n 's/^wibserve listening on //p' "$svcdir/serve.out")"
wpids=""
for i in 1 2 3; do
    "$svcdir/bin/wibworker" -server "$url" -id "chaos-$i" -parallel 2 \
        >"$svcdir/w$i.err" 2>&1 &
    wpids="$wpids $!"
done
victim=$(echo $wpids | awk '{print $1}')
timeout 300 "$svcdir/bin/experiments" -server "$url" -run fig4 \
    -bench gzip,art,treeadd -scale test -instr 500000 -parallel 4 \
    -cache-dir "$svcdir/client" -progress=false \
    >"$svcdir/dist.out" 2>"$svcdir/dist.err" &
exppid=$!
sleep 1
# Live scrape while the fleet is mid-campaign: the exposition must parse
# (non-empty, first line a comment) even under churn.
if command -v curl >/dev/null 2>&1; then
    curl -sf "$url/metrics" >"$svcdir/metrics.txt" || {
        echo "FAIL: /metrics unreachable mid-campaign"; exit 1; }
    head -1 "$svcdir/metrics.txt" | grep -q '^#' || {
        echo "FAIL: /metrics exposition malformed:"; head -5 "$svcdir/metrics.txt"; exit 1; }
fi
kill -9 "$victim" 2>/dev/null || true
if ! wait $exppid; then
    echo "FAIL: distributed sweep did not survive a killed worker:"
    cat "$svcdir/dist.err"
    kill $servepid $wpids 2>/dev/null || true
    rm -rf "$svcdir"
    exit 1
fi
kill -TERM $servepid $wpids 2>/dev/null || true
for p in $wpids $servepid; do wait $p 2>/dev/null || true; done
# Stitch the fleet's span log into one Chrome trace and validate it with
# the repo's own trace reader — the distributed-tracing acceptance bar.
"$svcdir/bin/wibtrace" -fleet "$svcdir/spans.jsonl" -o "$svcdir/fleet.trace.json" \
    >"$svcdir/fleet.out" 2>&1 || {
    echo "FAIL: fleet trace did not stitch:"; cat "$svcdir/fleet.out"; exit 1; }
"$svcdir/bin/wibtrace" -render "$svcdir/fleet.trace.json" >/dev/null || {
    echo "FAIL: stitched fleet trace fails the trace validator"; exit 1; }
grep -E '^(spans|hops)' "$svcdir/fleet.out" | sed 's/^/  fleet /' || true
if ! diff -r "$svcdir/serial/ca" "$svcdir/dist/ca" >/dev/null || \
   ! diff -r "$svcdir/serial/ca" "$svcdir/client/ca" >/dev/null; then
    echo "FAIL: fleet record stores differ from the serial run"
    rm -rf "$svcdir"
    exit 1
fi
if ! diff -u "$svcdir/serial.out" "$svcdir/dist.out"; then
    echo "FAIL: fleet-rendered tables differ from the serial run"
    rm -rf "$svcdir"
    exit 1
fi
"$svcdir/bin/experiments" -run fig4 -bench gzip,art,treeadd -scale test \
    -instr 500000 -parallel 4 -cache-dir "$svcdir/dist" -resume -progress=false \
    >"$svcdir/resume.out" 2>"$svcdir/resume.err"
if ! grep -q ' 0 executed' "$svcdir/resume.err"; then
    echo "FAIL: resume from the fleet's store recomputed cells:"
    cat "$svcdir/resume.err"
    rm -rf "$svcdir"
    exit 1
fi
sed -n 's/^coordinator:/  coordinator:/p' "$svcdir/dist.err" || true
rm -rf "$svcdir"
echo "  chaos: sweep survived a kill -9'd worker, stores byte-identical, 0 cells recomputed on resume"

echo "check: all gates passed"
